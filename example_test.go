package netout_test

import (
	"fmt"

	"netout"
)

// exampleGraph builds the small bibliographic network used by the runnable
// documentation examples: a KDD/SIGMOD group plus Eve, who coauthored once
// with Ann but otherwise publishes alone at SIGGRAPH.
func exampleGraph() *netout.Graph {
	schema := netout.MustSchema("author", "paper", "venue")
	author, _ := schema.TypeByName("author")
	paper, _ := schema.TypeByName("paper")
	venue, _ := schema.TypeByName("venue")
	schema.AllowLink(paper, author)
	schema.AllowLink(paper, venue)
	b := netout.NewBuilder(schema)
	venues := map[string]netout.VertexID{}
	for _, v := range []string{"KDD", "SIGMOD", "SIGGRAPH"} {
		venues[v] = b.MustAddVertex(venue, v)
	}
	authors := map[string]netout.VertexID{}
	for _, a := range []string{"Ann", "Ben", "Cai", "Eve"} {
		authors[a] = b.MustAddVertex(author, a)
	}
	i := 0
	addPaper := func(v string, names ...string) {
		i++
		p := b.MustAddVertex(paper, fmt.Sprintf("p%d", i))
		b.MustAddEdge(p, venues[v])
		for _, n := range names {
			b.MustAddEdge(p, authors[n])
		}
	}
	addPaper("KDD", "Ann", "Ben")
	addPaper("KDD", "Ann", "Cai")
	addPaper("SIGMOD", "Ann", "Ben")
	addPaper("SIGMOD", "Cai")
	addPaper("KDD", "Ann", "Eve")
	addPaper("SIGGRAPH", "Eve")
	addPaper("SIGGRAPH", "Eve")
	addPaper("SIGGRAPH", "Eve")
	return b.Build()
}

// The basic flow: build a network, run a declarative outlier query, read
// the ranked result (smaller scores are more outlying).
func ExampleEngine_Execute() {
	g := exampleGraph()
	eng := netout.NewEngine(g)
	res, err := eng.Execute(`
		FIND OUTLIERS
		FROM author{"Ann"}.paper.author
		JUDGED BY author.paper.venue
		TOP 2;`)
	if err != nil {
		panic(err)
	}
	for i, e := range res.Entries {
		fmt.Printf("%d. %s (%.2f)\n", i+1, e.Name, e.Score)
	}
	// Output:
	// 1. Eve (1.50)
	// 2. Ann (2.10)
}

// Queries parse into an AST that validates against a schema and prints
// back in canonical form.
func ExampleParseQuery() {
	q, err := netout.ParseQuery(`find outliers from venue{"KDD"}.paper.author
judged by author.paper.venue : 2.0 top 5`)
	if err != nil {
		panic(err)
	}
	fmt.Println(q.String())
	// Output:
	// FIND OUTLIERS
	// FROM venue{"KDD"}.paper.author
	// JUDGED BY author.paper.venue : 2
	// TOP 5;
}

// Explanations decompose a score coordinate by coordinate, making the
// outlier judgment auditable.
func ExampleEngine_Explain() {
	g := exampleGraph()
	eng := netout.NewEngine(g)
	x, err := eng.Explain(`FIND OUTLIERS FROM author{"Ann"}.paper.author
JUDGED BY author.paper.venue;`, "Eve", 1)
	if err != nil {
		panic(err)
	}
	top := x.Paths[0].Contributions[0]
	fmt.Printf("%s: %.0f%% of Eve's connectivity mass, reference count %.0f\n",
		top.Name, 100*top.CandidateShare, top.ReferenceCount)
	// Output:
	// SIGGRAPH: 90% of Eve's connectivity mass, reference count 3
}

// Meta-paths support the paper's two operators, reversal and concatenation.
func ExampleMetaPath() {
	g := exampleGraph()
	s := g.Schema()
	apv, _ := netout.ParseMetaPath(s, "author.paper.venue")
	fmt.Println(apv.Reverse().Dotted(s))
	fmt.Println(apv.Symmetric().Dotted(s))
	// Output:
	// venue.paper.author
	// author.paper.venue.paper.author
}
