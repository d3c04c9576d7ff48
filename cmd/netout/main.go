// Command netout runs outlier queries against a heterogeneous information
// network.
//
// Usage:
//
//	netout -net network.tsv -query 'FIND OUTLIERS FROM ... JUDGED BY ...;'
//	netout -net network.tsv -file queries.oql
//	netout -net network.tsv                # REPL: statements from stdin
//	netout -gen 2 -query '...'             # run against a generated network
//	netout -gen 2 -serve :8080             # serve POST /query over HTTP
//	netout -gen 2 -shard-serve -shard-listen :9201   # host a shard for -shard-addrs
//
// Flags select the outlierness measure (-measure netout|pathsim|cossim) and
// the materialization strategy (-strategy baseline|pm|spm|cached). SPM warms
// its index from the supplied query file (or the single -query). Every mode
// runs one engine; -serve and -shard-serve admit through a ServePool over it
// (-workers run tokens, a -max-queue queue).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"netout"
	"netout/internal/shardnet"
)

// eventSlowAlways is the latency above which a query's wide event is always
// journaled regardless of -event-sample, so the tail never samples away.
const eventSlowAlways = 100 * time.Millisecond

func main() {
	log.SetFlags(0)
	log.SetPrefix("netout: ")
	var (
		netPath     = flag.String("net", "", "network file (.tsv or .json)")
		genScale    = flag.Int("gen", 0, "generate a synthetic DBLP network at this scale instead of loading one")
		genSeed     = flag.Int64("seed", 1, "generator seed (with -gen)")
		queryText   = flag.String("query", "", "single query to execute")
		queryFile   = flag.String("file", "", "file of ;-separated queries to execute")
		measure     = flag.String("measure", "netout", "outlierness measure: netout, pathsim or cossim")
		strategy    = flag.String("strategy", "baseline", "materialization strategy: baseline, pm, spm or cached")
		threshold   = flag.Float64("spm-threshold", 0.01, "SPM relative frequency threshold")
		cacheMB     = flag.Int("cache-mb", 64, "cache size in MB for -strategy cached")
		_           = flag.Bool("subpath-cache", false, "deprecated, ignored: -strategy cached always keys its cache on (subpath, vertex)")
		saveIndex   = flag.String("save-index", "", "write the pm/spm index to this file after building")
		loadIndex   = flag.String("load-index", "", "load a previously saved index instead of building one")
		combine     = flag.String("combine", "average", "multi-path combination: average or concat")
		workers     = flag.Int("workers", 1, "parallel workers for -file query batches; run tokens for -serve and -shard-serve")
		parallelism = flag.Int("parallelism", 0, "local candidate ranges per query, one goroutine each, merged deterministically (0 = GOMAXPROCS, 1 = inline)")
		shardAddrs  = flag.String("shard-addrs", "", "comma-separated shard server addresses; candidates scatter over the network to them instead of local ranges")
		shardServe  = flag.Bool("shard-serve", false, "run as a shard server: host this network behind the shard protocol on -shard-listen")
		shardListen = flag.String("shard-listen", "127.0.0.1:9200", "with -shard-serve: listen address for the shard protocol")
		drainGrace  = flag.Duration("drain-grace", 5*time.Second, "graceful-shutdown window for in-flight work on SIGINT/SIGTERM (serve, shard-serve and admin servers)")
		explain     = flag.String("explain", "", "with -query: explain this candidate instead of ranking")
		timing      = flag.Bool("timing", false, "print per-query timing breakdown and phase trace")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz, /debug/slow, /debug/events, /debug/requests and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		eventLog    = flag.String("event-log", "", "append one JSON wide event per completed query to this file")
		eventSample = flag.Float64("event-sample", 1.0, "fraction of ok events kept in the journal; errors, partials and slow queries are always kept")
		serveAddr   = flag.String("serve", "", "serve queries over HTTP on this address (GET/POST /query; admin endpoints ride along)")
		maxQueue    = flag.Int("max-queue", 0, "with -serve or -shard-serve: bound the admission queue; a full queue sheds queries with HTTP 429 or RESOURCE_EXHAUSTED (0 = unbounded; with -shard-serve, 2×-workers)")
		timeout     = flag.Duration("timeout", 0, "with -serve: default per-query deadline for requests that carry none (0 = none)")
		jsonOut     = flag.Bool("json", false, "emit results as JSON instead of tables")
		progressive = flag.Bool("progressive", false, "run queries progressively, printing top-k snapshots")
		quiet       = flag.Bool("quiet", false, "suppress the banner")
	)
	flag.Parse()

	if *shardServe && *serveAddr != "" {
		log.Fatal("use either -shard-serve or -serve, not both")
	}

	g, err := loadNetwork(*netPath, *genScale, *genSeed, *quiet)
	if err != nil {
		log.Fatal(err)
	}
	if !*quiet {
		st := g.Stats()
		fmt.Printf("loaded network: %d vertices, %d directed edges\n", st.Vertices, st.EdgesDirected)
		for _, t := range g.Schema().TypeNames() {
			fmt.Printf("  %-10s %d\n", t, st.PerType[t])
		}
	}

	m, err := netout.ParseMeasure(*measure)
	if err != nil {
		log.Fatal(err)
	}

	queries, err := collectQueries(*queryText, *queryFile)
	if err != nil {
		log.Fatal(err)
	}

	comb, err := netout.ParseCombination(*combine)
	if err != nil {
		log.Fatal(err)
	}
	jsonResults = *jsonOut

	var mat netout.Materializer
	if *loadIndex != "" {
		mat, err = netout.LoadIndexFile(g, *loadIndex)
		if err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Printf("loaded %s index (%0.1f MB) from %s\n",
				mat.Strategy(), float64(mat.IndexBytes())/1e6, *loadIndex)
		}
	} else {
		mat, err = buildMaterializer(g, *strategy, *threshold, int64(*cacheMB)<<20, queries, *quiet)
		if err != nil {
			log.Fatal(err)
		}
		if *saveIndex != "" {
			if err := netout.SaveIndexFile(mat, *saveIndex); err != nil {
				log.Fatal(err)
			}
			if !*quiet {
				fmt.Printf("saved index to %s\n", *saveIndex)
			}
		}
	}
	statsMat = mat

	// The admin surfaces: Prometheus metrics, liveness/readiness, the
	// slow-query log, the event ring, the in-flight table and pprof. Serve
	// mode always has them (the /query front end and the admin endpoints share
	// one mux), so a -metrics-addr there is optional — set it to scrape on a
	// separate port. Elsewhere the endpoint serves for as long as the process
	// runs, so it is most useful with the REPL or long query files; one-shot
	// runs still expose their final counters until exit.
	var (
		reg       *netout.MetricsRegistry
		slow      *netout.SlowLog
		inflight  *netout.Inflight
		adminOpts []netout.AdminOption
		adminSrv  *http.Server
		events    netout.EventSink
	)
	if *metricsAddr != "" || *serveAddr != "" {
		reg = netout.DefaultMetrics()
		slow = netout.NewSlowLog(16)
		ring := netout.NewEventRing(0)
		inflight = netout.NewInflight()
		netout.RegisterProcessMetrics(reg) // the engine registers its materializer and in-flight table
		adminOpts = []netout.AdminOption{netout.AdminWithEventRing(ring), netout.AdminWithInflight(inflight)}
		events = ring
	}
	// One wide event per completed query, whichever mode runs it: into the
	// ring (/debug/events), with -event-log into an append-only JSONL file —
	// both behind the -event-sample sampler — and into the slow log
	// (/debug/slow), which sees every query.
	if *eventLog != "" {
		f, err := os.OpenFile(*eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		events = netout.CombineEventSinks(events, netout.NewJSONLEventWriter(f))
	}
	if events != nil && *eventSample < 1 {
		events = netout.NewSampledEventSink(events, *eventSample, eventSlowAlways)
	}
	if slow != nil {
		events = netout.CombineEventSinks(events, slow)
	}
	if *metricsAddr != "" {
		adminSrv = hardenedServer(*metricsAddr, netout.NewAdminMux(reg, slow, adminOpts...))
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		if !*quiet {
			fmt.Printf("admin endpoint on http://%s (/metrics, /healthz, /readyz, /debug/slow, /debug/events, /debug/requests, /debug/pprof)\n", *metricsAddr)
		}
	}

	// Remote shard fleet: one lazy-dialing client per -shard-addrs entry.
	// The clients are shared by every query the engine runs; transport
	// failures fold into the exact-prefix Partial contract downstream.
	var remotes []netout.RemoteShard
	for _, a := range strings.Split(*shardAddrs, ",") {
		if a = strings.TrimSpace(a); a == "" {
			continue
		}
		cl := shardnet.Dial(a, reg)
		defer cl.Close()
		remotes = append(remotes, cl)
	}

	// The one engine: every mode below runs it, or a pool built from it.
	eng := netout.NewEngine(g,
		netout.WithMeasure(m),
		netout.WithMaterializer(mat),
		netout.WithCombination(comb),
		netout.WithQueryParallelism(*parallelism),
		netout.WithRemoteShards(remotes...),
		netout.WithObs(reg),
		netout.WithEventSink(events),
		netout.WithInflight(inflight))
	defer eng.Close()

	switch {
	case *shardServe:
		if err := runShardServe(eng, shardServeConfig{
			listen: *shardListen, workers: *workers, queue: *maxQueue,
			reg: reg, grace: *drainGrace, adminSrv: adminSrv, quiet: *quiet,
		}); err != nil {
			log.Fatal(err)
		}
	case *serveAddr != "":
		if err := runServe(eng, serveConfig{
			addr: *serveAddr, workers: *workers, maxQueue: *maxQueue, timeout: *timeout,
			reg: reg, slow: slow, adminOpts: adminOpts,
			drainGrace: *drainGrace, adminSrv: adminSrv,
			quiet: *quiet,
		}); err != nil {
			log.Fatal(err)
		}
	case *explain != "":
		if len(queries) != 1 {
			log.Fatal("-explain needs exactly one query (via -query or -file)")
		}
		x, err := eng.Explain(queries[0], *explain, 15)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(x.Format())
	case len(queries) > 0 && *workers > 1:
		results := netout.ExecuteBatch(eng, queries, netout.BatchOptions{Workers: *workers})
		for i, br := range results {
			fmt.Printf("-- query %d --\n", i+1)
			if br.Err != nil {
				fmt.Printf("error: %v\n", br.Err)
				continue
			}
			printResult(os.Stdout, br.Result, *timing)
		}
	case len(queries) > 0 && *progressive:
		for _, src := range queries {
			if err := runProgressive(eng, src, *timing); err != nil {
				log.Fatal(err)
			}
		}
	case len(queries) > 0:
		for _, src := range queries {
			if err := runOne(eng, src, *timing); err != nil {
				log.Fatal(err)
			}
		}
	default:
		replFrom(eng, *timing, os.Stdin)
	}
}

func loadNetwork(path string, genScale int, seed int64, quiet bool) (*netout.Graph, error) {
	switch {
	case path != "" && genScale > 0:
		return nil, netout.Errorf(netout.CodeInvalidArgument, "use either -net or -gen, not both")
	case path != "":
		return netout.LoadGraph(path)
	case genScale > 0:
		if !quiet {
			fmt.Printf("generating synthetic DBLP network (scale %d, seed %d) ...\n", genScale, seed)
		}
		cfg := netout.ScaledGenConfig(genScale)
		cfg.Seed = seed
		g, _, err := netout.Generate(cfg)
		return g, err
	default:
		return nil, netout.Errorf(netout.CodeInvalidArgument, "need -net <file> or -gen <scale>")
	}
}

func collectQueries(queryText, queryFile string) ([]string, error) {
	var out []string
	if queryText != "" {
		out = append(out, queryText)
	}
	if queryFile != "" {
		data, err := os.ReadFile(queryFile)
		if err != nil {
			return nil, err
		}
		out = append(out, splitStatements(string(data))...)
	}
	return out, nil
}

// splitStatements splits ;-separated statements, ignoring blank ones.
func splitStatements(src string) []string {
	var out []string
	for _, stmt := range strings.Split(src, ";") {
		if strings.TrimSpace(stmt) != "" {
			out = append(out, strings.TrimSpace(stmt)+";")
		}
	}
	return out
}

func buildMaterializer(g *netout.Graph, strategy string, threshold float64, cacheBytes int64, queries []string, quiet bool) (netout.Materializer, error) {
	switch strategy {
	case "baseline":
		return netout.NewBaseline(g), nil
	case "cached":
		return netout.NewCached(g, cacheBytes)
	case "pm":
		if !quiet {
			fmt.Println("pre-materializing all length-2 meta-paths (PM) ...")
		}
		start := time.Now()
		mat := netout.NewPM(g)
		if !quiet {
			fmt.Printf("PM index: %.1f MB in %v\n", float64(mat.IndexBytes())/1e6, time.Since(start).Round(time.Millisecond))
		}
		return mat, nil
	case "spm":
		if len(queries) == 0 {
			return nil, netout.Errorf(netout.CodeInvalidArgument, "-strategy spm needs -query or -file as the initialization query set")
		}
		if !quiet {
			fmt.Printf("selective pre-materialization (SPM, threshold %g) from %d queries ...\n", threshold, len(queries))
		}
		start := time.Now()
		mat, err := netout.NewSPM(g, queries, netout.SPMConfig{Threshold: threshold})
		if err != nil {
			return nil, err
		}
		if !quiet {
			fmt.Printf("SPM index: %.1f MB in %v\n", float64(mat.IndexBytes())/1e6, time.Since(start).Round(time.Millisecond))
		}
		return mat, nil
	}
	return nil, netout.Errorf(netout.CodeInvalidArgument, "unknown strategy %q (want baseline, pm, spm or cached)", strategy)
}

// jsonResults switches all result printing to JSON lines (set by -json).
var jsonResults bool

// runProgressive executes one query progressively, printing a snapshot per
// chunk of the reference set.
func runProgressive(eng *netout.Engine, src string, timing bool) error {
	res, err := eng.ExecuteProgressive(src, netout.ProgressiveOptions{
		OnSnapshot: func(s netout.ProgressiveSnapshot) bool {
			fmt.Printf("[%d/%d refs]", s.ProcessedRefs, s.TotalRefs)
			for i, est := range s.TopK {
				if i >= 3 {
					break
				}
				fmt.Printf("  %s=%.3f±%.3f", est.Name, est.Score, est.HalfWidth)
			}
			fmt.Println()
			return true
		},
	})
	if err != nil {
		return err
	}
	printResult(os.Stdout, res, timing)
	return nil
}

func runOne(eng *netout.Engine, src string, timing bool) error {
	res, err := eng.Execute(src)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res, timing)
	return nil
}

// jsonResult is the machine-readable result shape emitted by -json. With
// -timing, the Figure 4 cost breakdown and the per-phase trace ride along,
// so the two flags compose instead of -json silently dropping -timing.
type jsonResult struct {
	// RequestID is the serving layer's correlation ID (set in -serve mode,
	// echoed from the X-Request-Id response header; empty for CLI output).
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the W3C trace the query ran under (set in -serve mode,
	// matching the traceparent response header; empty for CLI output).
	TraceID        string      `json:"trace_id,omitempty"`
	Entries        []jsonEntry `json:"entries"`
	Partial        bool        `json:"partial,omitempty"`
	Skipped        int         `json:"skipped"`
	CandidateCount int         `json:"candidates"`
	ReferenceCount int         `json:"references"`
	TotalMicros    int64       `json:"total_us"`
	Timing         *jsonTiming `json:"timing,omitempty"`
	// Trace is the per-phase breakdown, in the rows the query's wide event has.
	Trace []netout.QueryEventPhase `json:"trace,omitempty"`
}

type jsonEntry struct {
	Rank  int     `json:"rank"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

type jsonTiming struct {
	SetRetrievalUs   int64 `json:"set_retrieval_us"`
	TraversalUs      int64 `json:"traversal_us"`
	TraversedVectors int64 `json:"traversed_vectors"`
	IndexedUs        int64 `json:"indexed_us"`
	IndexedVectors   int64 `json:"indexed_vectors"`
	ScoringUs        int64 `json:"scoring_us"`
}

// newJSONResult builds the machine-readable shape of res: the -json object
// and, with the serving identities added by the handler, the /query body.
func newJSONResult(res *netout.Result, timing bool) jsonResult {
	jr := jsonResult{
		Partial:        res.Partial,
		Skipped:        len(res.Skipped),
		CandidateCount: res.CandidateCount,
		ReferenceCount: res.ReferenceCount,
		TotalMicros:    res.Timing.Total.Microseconds(),
	}
	if len(res.Entries) > 0 { // none stays nil and encodes null, as it always has
		jr.Entries = make([]jsonEntry, len(res.Entries))
	}
	for i, e := range res.Entries {
		jr.Entries[i] = jsonEntry{Rank: i + 1, Name: e.Name, Score: e.Score}
	}
	if !timing {
		return jr
	}
	t := res.Timing
	jr.Timing = &jsonTiming{
		SetRetrievalUs:   t.SetRetrieval.Microseconds(),
		TraversalUs:      t.NotIndexed.Microseconds(),
		TraversedVectors: t.TraversedVectors,
		IndexedUs:        t.Indexed.Microseconds(),
		IndexedVectors:   t.IndexedVectors,
		ScoringUs:        t.Scoring.Microseconds(),
	}
	if res.Trace != nil {
		jr.Trace = res.Trace.Event().Phases
	}
	return jr
}

func printResult(w io.Writer, res *netout.Result, timing bool) {
	if !jsonResults {
		printResultTable(w, res, timing)
		return
	}
	jr := newJSONResult(res, timing)
	line, err := appendJSONResult(nil, &jr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "netout: encoding result: %v\n", err)
		return
	}
	w.Write(line)
}

// statsMat is the materializer whose cache counters the timing output
// reports (set by main; nil in tests that call printResult directly).
var statsMat netout.Materializer

func printResultTable(w io.Writer, res *netout.Result, timing bool) {
	if res.Partial {
		fmt.Fprintln(w, "(partial result: the deadline expired mid-query; entries cover the candidates scored so far)")
	}
	fmt.Fprintf(w, "%-5s %-12s %s\n", "rank", "score", "name")
	for i, e := range res.Entries {
		fmt.Fprintf(w, "%-5d %-12.4f %s\n", i+1, e.Score, e.Name)
	}
	if len(res.Skipped) > 0 {
		fmt.Fprintf(w, "(%d candidates skipped: zero visibility under the feature meta-paths)\n", len(res.Skipped))
	}
	fmt.Fprintf(w, "(%d candidates, %d reference vertices, %v)\n",
		res.CandidateCount, res.ReferenceCount, res.Timing.Total.Round(time.Microsecond))
	if timing {
		t := res.Timing
		fmt.Fprintf(w, "timing: set retrieval %v | traversal %v (%d vectors) | index %v (%d vectors) | scoring %v\n",
			t.SetRetrieval.Round(time.Microsecond),
			t.NotIndexed.Round(time.Microsecond), t.TraversedVectors,
			t.Indexed.Round(time.Microsecond), t.IndexedVectors,
			t.Scoring.Round(time.Microsecond))
		if res.Trace != nil {
			fmt.Fprint(w, res.Trace.Format())
		}
		if statsMat != nil {
			if cs, ok := netout.CacheStatsOf(statsMat); ok {
				fmt.Fprintf(w, "cache: %s\n", cs)
			}
		}
	}
}

const replHelp = `commands (all terminated by ';'):
  FIND OUTLIERS ...            run an outlier query
  .schema                      show vertex types and allowed links
  .names <type> [<prefix>]     list vertex names with a prefix (max 25)
  .explain <name> <query>      decompose <name>'s score under <query>
  .suggest <query>             rank alternative feature meta-paths
  .progressive <query>         run with progressive top-k snapshots
  .hist <query>                histogram of the candidate score distribution
  .help                        this message
  quit`

// replFrom runs the REPL loop over an arbitrary input stream (tests inject
// scripted sessions here).
func replFrom(eng *netout.Engine, timing bool, in io.Reader) {
	fmt.Println(`enter queries terminated by ';' (".help;" for commands, "quit;" to exit):`)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var buf strings.Builder
	names := newNameIndex(eng.Graph())
	prompt := func() { fmt.Print("netout> ") }
	prompt()
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			continue
		}
		src := strings.TrimSpace(buf.String())
		buf.Reset()
		bare := strings.TrimSpace(strings.TrimSuffix(src, ";"))
		if strings.EqualFold(bare, "quit") || strings.EqualFold(bare, "exit") {
			return
		}
		if err := dispatch(eng, names, src, bare, timing); err != nil {
			fmt.Printf("error: %v\n", err)
		}
		prompt()
	}
}

func dispatch(eng *netout.Engine, names *nameIndex, src, bare string, timing bool) error {
	if !strings.HasPrefix(bare, ".") {
		return runOne(eng, src, timing)
	}
	fields := strings.Fields(bare)
	switch fields[0] {
	case ".help":
		fmt.Println(replHelp)
		return nil
	case ".schema":
		printSchema(eng.Graph())
		return nil
	case ".names":
		if len(fields) < 2 {
			return netout.Errorf(netout.CodeInvalidArgument, ".names wants: .names <type> [<prefix>]")
		}
		// Names contain spaces: the prefix is the rest of the line.
		rest := strings.TrimSpace(strings.TrimPrefix(bare, ".names"))
		return names.print(fields[1], strings.TrimSpace(strings.TrimPrefix(rest, fields[1])), 25)
	case ".explain":
		if len(fields) < 3 {
			return netout.Errorf(netout.CodeInvalidArgument, ".explain wants: .explain <name> <query>")
		}
		rest := strings.TrimSpace(strings.TrimPrefix(bare, ".explain"))
		name, query, err := splitNameAndQuery(rest)
		if err != nil {
			return err
		}
		x, err := eng.Explain(query+";", name, 15)
		if err != nil {
			return err
		}
		fmt.Print(x.Format())
		return nil
	case ".suggest":
		query := strings.TrimSpace(strings.TrimPrefix(bare, ".suggest"))
		sugs, err := eng.SuggestFeatures(query+";", 4)
		if err != nil {
			return err
		}
		fmt.Print(netout.FormatSuggestions(sugs, 10))
		return nil
	case ".progressive":
		return runProgressive(eng, strings.TrimSpace(strings.TrimPrefix(bare, ".progressive"))+";", timing)
	case ".hist":
		query := strings.TrimSpace(strings.TrimPrefix(bare, ".hist"))
		q, err := netout.ParseQuery(query + ";")
		if err != nil {
			return err
		}
		// Drop any TOP clause so the histogram covers the full candidate set.
		q.TopK = 0
		res, err := eng.Execute(q.String())
		if err != nil {
			return err
		}
		h, err := res.ScoreHistogram(12)
		if err != nil {
			return err
		}
		fmt.Print(h.Render(48))
		return nil
	}
	return netout.Errorf(netout.CodeInvalidArgument, "unknown command %s (try .help;)", fields[0])
}

// splitNameAndQuery splits `.explain` arguments: either a quoted name
// followed by the query, or a single bare word.
func splitNameAndQuery(rest string) (name, query string, err error) {
	if rest == "" {
		return "", "", netout.Errorf(netout.CodeInvalidArgument, "missing candidate name")
	}
	if rest[0] == '"' || rest[0] == '\'' {
		quote := rest[0]
		end := strings.IndexByte(rest[1:], quote)
		if end < 0 {
			return "", "", netout.Errorf(netout.CodeInvalidArgument, "unterminated quoted name")
		}
		return rest[1 : 1+end], strings.TrimSpace(rest[2+end:]), nil
	}
	parts := strings.SplitN(rest, " ", 2)
	if len(parts) != 2 {
		return "", "", netout.Errorf(netout.CodeInvalidArgument, ".explain wants: .explain <name> <query>")
	}
	return parts[0], strings.TrimSpace(parts[1]), nil
}

func printSchema(g *netout.Graph) {
	s := g.Schema()
	st := g.Stats()
	for _, t := range s.TypeNames() {
		id, _ := s.TypeByName(t)
		var links []string
		for _, d := range s.AllowedFrom(id) {
			links = append(links, s.TypeName(d))
		}
		fmt.Printf("  %-12s %8d vertices, links to: %s\n", t, st.PerType[t], strings.Join(links, ", "))
	}
}

// nameIndex answers prefix look-ups over a type's vertex names: sorted once
// per type on first use, the names with a prefix are the run between two
// binary searches.
type nameIndex struct {
	g      *netout.Graph
	sorted map[string][]string
}

func newNameIndex(g *netout.Graph) *nameIndex {
	return &nameIndex{g: g, sorted: map[string][]string{}}
}

func (ni *nameIndex) print(typeName, prefix string, limit int) error {
	t, ok := ni.g.Schema().TypeByName(typeName)
	if !ok {
		return netout.Errorf(netout.CodeNotFound, "unknown vertex type %q", typeName)
	}
	names, ok := ni.sorted[typeName]
	if !ok {
		for _, v := range ni.g.VerticesOfType(t) {
			names = append(names, ni.g.Name(v))
		}
		sort.Strings(names)
		ni.sorted[typeName] = names
	}
	lo := sort.SearchStrings(names, prefix)
	keys := names[lo:]
	keys = keys[:sort.Search(len(keys), func(i int) bool { return !strings.HasPrefix(keys[i], prefix) })]
	for i, k := range keys {
		if i >= limit {
			fmt.Printf("  ... and %d more\n", len(keys)-limit)
			break
		}
		fmt.Printf("  %s\n", k)
	}
	if len(keys) == 0 {
		fmt.Println("  (no matches)")
	}
	return nil
}
