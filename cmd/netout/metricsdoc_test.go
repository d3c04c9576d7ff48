package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"netout"
	"netout/internal/obs"
	"netout/internal/shardnet"
)

// documentedFamilies reads the family names out of README's metric table: the
// backticked names of each row's first cell, `{a,b}` alternations expanded
// and label sets dropped. A row must fill in all four cells.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`(netout_[a-z_]*)(?:\\{([a-z_,]+)\\}([a-z_]+))?")
	out := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "| `netout_") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), " | ")
		if len(cells) != 4 || strings.TrimSpace(cells[3]) == "" {
			t.Fatalf("metric row without a type, a source and a question it answers:\n%s", line)
		}
		for _, m := range name.FindAllStringSubmatch(cells[0], -1) {
			if m[3] == "" { // no alternation: a plain name, or one followed by labels
				out[m[1]] = true
				continue
			}
			for _, alt := range strings.Split(m[2], ",") {
				out[m[1]+alt+m[3]] = true
			}
		}
	}
	return out
}

// TestEveryFamilyIsDocumented scrapes a registry that has seen every layer a
// process can run — a cached ServePool behind the /query handler, and a
// coordinator scattering over a shardnet round trip — and fails on any
// netout_* family README's metric table has no row (and so no question) for.
// It lives here rather than in the root package because the /query handler
// does.
func TestEveryFamilyIsDocumented(t *testing.T) {
	g := smallGraph(t)
	reg := obs.NewRegistry()
	q := `FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 3;`

	mat, err := netout.NewCached(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	pool := netout.NewServePool(netout.NewEngine(g, netout.WithMaterializer(mat),
		netout.WithObs(reg), netout.WithInflight(netout.NewInflight())), netout.ServeOptions{Workers: 1})
	defer pool.Close()
	front := httptest.NewServer(serveHandler(pool, reg, nil))
	defer front.Close()
	for _, body := range []string{q, "NOT OQL;"} {
		resp, err := http.Post(front.URL+"/query", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	shardPool := netout.NewServePool(netout.NewEngine(g), netout.ServeOptions{Workers: 1})
	defer shardPool.Close()
	shard := shardnet.NewServer(shardPool, shardnet.ServerOptions{Obs: reg})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go shard.Serve(lis)
	defer shard.Close()
	client := shardnet.Dial(lis.Addr().String(), reg)
	defer client.Close()
	res, err := netout.NewEngine(g, netout.WithRemoteShards(client), netout.WithObs(reg)).Execute(q)
	if err != nil || len(res.Trace.Shards) != 1 {
		t.Fatalf("scattered query: err=%v shards=%+v", err, res)
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	documented := documentedFamilies(t)
	scraped := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		fam, ok := strings.CutPrefix(line, "# TYPE netout_")
		if !ok {
			continue
		}
		scraped++
		if fam = "netout_" + strings.Fields(fam)[0]; !documented[fam] {
			t.Errorf("%s is exported but has no row in README's metric table", fam)
		}
	}
	// Every layer registered: engine, pool, cache, handler, in-flight table,
	// shard client and shard server (the fault-only families stay absent).
	if scraped < 27 {
		t.Fatalf("scrape saw only %d netout_* families:\n%s", scraped, sb.String())
	}
}
