package rel

import (
	"fmt"
	"strings"
	"testing"

	"netout/internal/core"
)

// bibDB builds a small relational bibliographic database: papers reference
// venues by foreign key; authorship is a junction table.
func bibDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	mustCreate := func(def TableDef) *Table {
		tab, err := db.CreateTable(def)
		if err != nil {
			t.Fatalf("CreateTable(%s): %v", def.Name, err)
		}
		return tab
	}
	venues := mustCreate(TableDef{
		Name: "venue", Key: "id",
		Columns: []Column{{Name: "id", Type: IntCol}, {Name: "name", Type: TextCol}},
	})
	authors := mustCreate(TableDef{
		Name: "author", Key: "id",
		Columns: []Column{{Name: "id", Type: IntCol}, {Name: "name", Type: TextCol}},
	})
	papers := mustCreate(TableDef{
		Name: "paper", Key: "id",
		Columns: []Column{
			{Name: "id", Type: IntCol},
			{Name: "title", Type: TextCol},
			{Name: "venue_id", Type: IntCol, References: "venue"},
		},
	})
	wrote := mustCreate(TableDef{
		Name: "wrote",
		Columns: []Column{
			{Name: "author_id", Type: IntCol, References: "author"},
			{Name: "paper_id", Type: IntCol, References: "paper"},
		},
	})

	venues.MustInsert(Row{"id": int64(1), "name": "KDD"})
	venues.MustInsert(Row{"id": int64(2), "name": "SIGGRAPH"})
	for i, name := range []string{"Ann", "Ben", "Cai", "Eve"} {
		authors.MustInsert(Row{"id": int64(i + 1), "name": name})
	}
	// Papers 1-4 at KDD by the Ann/Ben/Cai group; papers 5-7 at SIGGRAPH by Eve.
	for i := 1; i <= 4; i++ {
		papers.MustInsert(Row{"id": int64(i), "title": fmt.Sprintf("p%d", i), "venue_id": int64(1)})
	}
	for i := 5; i <= 7; i++ {
		papers.MustInsert(Row{"id": int64(i), "title": fmt.Sprintf("p%d", i), "venue_id": int64(2)})
	}
	authorship := [][2]int64{
		{1, 1}, {2, 1}, {1, 2}, {3, 2}, {2, 3}, {3, 3}, {1, 4}, {4, 4},
		{4, 5}, {4, 6}, {4, 7},
	}
	for _, ap := range authorship {
		wrote.MustInsert(Row{"author_id": ap[0], "paper_id": ap[1]})
	}
	return db
}

func TestDBBasics(t *testing.T) {
	db := bibDB(t)
	if err := db.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	names := db.TableNames()
	if len(names) != 4 || names[0] != "venue" {
		t.Fatalf("TableNames = %v", names)
	}
	papers, _ := db.Table("paper")
	if _, ok := papers.Lookup(int64(3)); !ok {
		t.Fatal("Lookup failed")
	}
}

func TestCreateTableErrors(t *testing.T) {
	db := NewDB()
	cases := []TableDef{
		{},
		{Name: "t"},
		{Name: "t", Columns: []Column{{}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: IntCol}, {Name: "a", Type: IntCol}}},
		{Name: "t", Key: "missing", Columns: []Column{{Name: "a", Type: IntCol}}},
		{Name: "t", Key: "f", Columns: []Column{{Name: "f", Type: FloatCol}}},
	}
	for i, def := range cases {
		if _, err := db.CreateTable(def); err == nil {
			t.Errorf("case %d: invalid table accepted", i)
		}
	}
	if _, err := db.CreateTable(TableDef{Name: "ok", Columns: []Column{{Name: "a", Type: IntCol}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(TableDef{Name: "ok", Columns: []Column{{Name: "a", Type: IntCol}}}); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestInsertErrors(t *testing.T) {
	db := NewDB()
	tab, _ := db.CreateTable(TableDef{
		Name: "t", Key: "id",
		Columns: []Column{{Name: "id", Type: IntCol}, {Name: "x", Type: FloatCol}},
	})
	if err := tab.Insert(Row{"id": int64(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := tab.Insert(Row{"id": int64(1), "nosuch": int64(2)}); err == nil {
		t.Error("unknown column accepted")
	}
	if err := tab.Insert(Row{"id": "one", "x": 1.5}); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := tab.Insert(Row{"id": int64(1), "x": 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(Row{"id": int64(1), "x": 2.5}); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := tab.Insert(Row{"id": int64(2), "x": nil}); err != nil {
		t.Errorf("nil value should be allowed: %v", err)
	}
}

func TestValidateIntegrity(t *testing.T) {
	db := NewDB()
	a, _ := db.CreateTable(TableDef{Name: "a", Key: "id",
		Columns: []Column{{Name: "id", Type: IntCol}}})
	bT, _ := db.CreateTable(TableDef{Name: "b", Key: "id",
		Columns: []Column{{Name: "id", Type: IntCol}, {Name: "a_id", Type: IntCol, References: "a"}}})
	a.MustInsert(Row{"id": int64(1)})
	bT.MustInsert(Row{"id": int64(1), "a_id": int64(1)})
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	bT.MustInsert(Row{"id": int64(2), "a_id": int64(99)})
	if err := db.Validate(); err == nil {
		t.Error("dangling FK should fail validation")
	}
	db2 := NewDB()
	c, _ := db2.CreateTable(TableDef{Name: "c",
		Columns: []Column{{Name: "x", Type: IntCol, References: "nowhere"}}})
	c.MustInsert(Row{"x": int64(1)})
	if err := db2.Validate(); err == nil {
		t.Error("FK to unknown table should fail validation")
	}
}

func TestToHIN(t *testing.T) {
	db := bibDB(t)
	g, err := ToHIN(db, BridgeConfig{
		EntityTables: []EntityTable{
			{Table: "author", NameColumn: "name"},
			{Table: "paper", NameColumn: "title"},
			{Table: "venue", NameColumn: "name"},
		},
		JunctionTables: []string{"wrote"},
	})
	if err != nil {
		t.Fatalf("ToHIN: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	s := g.Schema()
	authorT, ok := s.TypeByName("author")
	if !ok {
		t.Fatal("author type missing")
	}
	paperT, _ := s.TypeByName("paper")
	venueT, _ := s.TypeByName("venue")
	if g.NumVerticesOfType(authorT) != 4 || g.NumVerticesOfType(paperT) != 7 || g.NumVerticesOfType(venueT) != 2 {
		t.Fatalf("vertex counts wrong: %+v", g.Stats())
	}
	// FK edges: paper-venue; junction edges: author-paper.
	eve, _ := g.VertexByName(authorT, "Eve")
	if d := g.Degree(eve, paperT); d != 4 {
		t.Fatalf("Eve paper degree = %d, want 4", d)
	}
	// The bridged network answers outlier queries.
	eng := core.NewEngine(g)
	res, err := eng.Execute(`FIND OUTLIERS
FROM author{"Ann"}.paper.author
JUDGED BY author.paper.venue
TOP 4;`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries[0].Name != "Eve" {
		t.Fatalf("top outlier = %s, want Eve (%+v)", res.Entries[0].Name, res.Entries)
	}
}

func TestToHINErrors(t *testing.T) {
	db := bibDB(t)
	cases := []BridgeConfig{
		{},
		{EntityTables: []EntityTable{{Table: "nosuch"}}},
		{EntityTables: []EntityTable{{Table: "author", NameColumn: "nosuch"}}},
		{EntityTables: []EntityTable{{Table: "author"}, {Table: "author"}}},
		{EntityTables: []EntityTable{{Table: "author"}}, JunctionTables: []string{"nosuch"}},
		{EntityTables: []EntityTable{{Table: "author"}}, JunctionTables: []string{"author"}},
		// Junction referencing fewer than two entity tables.
		{EntityTables: []EntityTable{{Table: "author"}}, JunctionTables: []string{"wrote"}},
		// Entity table without a primary key.
		{EntityTables: []EntityTable{{Table: "wrote"}}},
	}
	for i, cfg := range cases {
		if _, err := ToHIN(db, cfg); err == nil {
			t.Errorf("case %d: invalid bridge accepted", i)
		}
	}
}

func TestToHINDuplicateLabels(t *testing.T) {
	db := NewDB()
	people, _ := db.CreateTable(TableDef{Name: "person", Key: "id",
		Columns: []Column{{Name: "id", Type: IntCol}, {Name: "name", Type: TextCol}}})
	people.MustInsert(Row{"id": int64(1), "name": "Smith"})
	people.MustInsert(Row{"id": int64(2), "name": "Smith"})
	g, err := ToHIN(db, BridgeConfig{EntityTables: []EntityTable{{Table: "person", NameColumn: "name"}}})
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := g.Schema().TypeByName("person")
	if g.NumVerticesOfType(pt) != 2 {
		t.Fatalf("both Smiths should exist, got %d", g.NumVerticesOfType(pt))
	}
	if _, ok := g.VertexByName(pt, "Smith"); !ok {
		t.Error("first Smith lost")
	}
	if _, ok := g.VertexByName(pt, "Smith#i:2"); !ok {
		t.Error("second Smith not disambiguated")
	}
}

func TestToHINNilForeignKey(t *testing.T) {
	db := NewDB()
	venues, _ := db.CreateTable(TableDef{Name: "venue", Key: "id",
		Columns: []Column{{Name: "id", Type: IntCol}}})
	papers, _ := db.CreateTable(TableDef{Name: "paper", Key: "id",
		Columns: []Column{{Name: "id", Type: IntCol}, {Name: "venue_id", Type: IntCol, References: "venue"}}})
	venues.MustInsert(Row{"id": int64(1)})
	papers.MustInsert(Row{"id": int64(1), "venue_id": int64(1)})
	papers.MustInsert(Row{"id": int64(2), "venue_id": nil}) // preprint, no venue
	g, err := ToHIN(db, BridgeConfig{EntityTables: []EntityTable{{Table: "venue"}, {Table: "paper"}}})
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := g.Schema().TypeByName("paper")
	vt, _ := g.Schema().TypeByName("venue")
	p2, _ := g.VertexByName(pt, "2")
	if d := g.Degree(p2, vt); d != 0 {
		t.Fatalf("nil FK produced an edge: degree %d", d)
	}
}

func TestColumnTypeString(t *testing.T) {
	if TextCol.String() != "text" || IntCol.String() != "int" || FloatCol.String() != "float" {
		t.Error("ColumnType.String wrong")
	}
	if !strings.Contains(ColumnType(9).String(), "9") {
		t.Error("unknown ColumnType.String wrong")
	}
}
