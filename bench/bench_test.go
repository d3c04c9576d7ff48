package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"netout"
)

// Fast tests of the harness's own arithmetic and parsers. None starts a
// process; the end-to-end path is what `go run ./bench -smoke` covers.

// testSpec is BENCHMARK.json as the harness loads it.
func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func inputs(t *testing.T, seed int64) (tsv []byte, lists [][]string) {
	t.Helper()
	g, err := generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tsv")
	if err := netout.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	if tsv, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if g, err = netout.LoadGraph(path); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads(g, seed, 1) {
		lists = append(lists, w.requests)
	}
	return tsv, lists
}

func TestInputsComeFromTheSeed(t *testing.T) {
	tsv1, lists1 := inputs(t, 1)
	tsv1b, lists1b := inputs(t, 1)
	tsv2, lists2 := inputs(t, 2)
	if !bytes.Equal(tsv1, tsv1b) {
		t.Error("same seed, different TSV")
	}
	if bytes.Equal(tsv1, tsv2) {
		t.Error("different seeds, same TSV")
	}
	for i := range lists1 {
		if !slices.Equal(lists1[i], lists1b[i]) {
			t.Errorf("workload %d: same seed, different request list", i)
		}
	}
	// The scan lists name no vertex, so only the anchored lists must differ.
	for i := 0; i < 2; i++ {
		if slices.Equal(lists1[i], lists2[i]) {
			t.Errorf("workload %d: different seeds, same request list", i)
		}
	}
	for i, want := range []int{warmLen, spillLen, scanLen, scanLen} {
		if len(lists1[i]) != want {
			t.Errorf("workload %d has %d requests, want %d", i, len(lists1[i]), want)
		}
	}
	if !slices.Equal(lists1[2], lists1[3]) {
		t.Error("scan_shards must replay the scan_local list byte for byte")
	}
}

func TestApportion(t *testing.T) {
	got := apportion(zipfWeights(6, featZipf), spillLen)
	sum := 0
	for i, c := range got {
		sum += c
		if i > 0 && c > got[i-1] {
			t.Errorf("counts %v do not fall with rank", got)
		}
	}
	if sum != spillLen {
		t.Errorf("counts %v sum to %d, want %d", got, sum, spillLen)
	}
}

func TestScanPatternKeepsPercentilesInsideAClass(t *testing.T) {
	count := map[int]int{}
	for _, f := range scanPattern {
		count[f]++
	}
	if len(scanPattern) != 20 || count[0] != 5 || count[1] != 2 || count[2] != 9 || count[3] != 4 {
		t.Fatalf("scan pattern shares %v, want 5/2/9/4 of 20", count)
	}
	// Sorted by cost the classes are venue < {term, author} in either order
	// < venue+term. Per 100 requests: p50 is rank 50 and p90 rank 90; both
	// must fall strictly inside a class for either order of term and author.
	for _, order := range [][]int{{0, 1, 2, 3}, {0, 2, 1, 3}} {
		for _, rank := range []int{50, 90} {
			lo := 0
			for _, class := range order {
				hi := lo + 5*count[class]
				if rank > lo && rank <= hi && (rank-lo < 3 || hi-rank < 3) {
					t.Errorf("order %v: rank %d is within 3 of the edge of class %d (%d..%d)", order, rank, class, lo+1, hi)
				}
				lo = hi
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs[:1], 0.99); got != 1 {
		t.Errorf("p99 of one sample = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	// statistics.quantiles([1,2,4,8,16,32,64,128,256,512], n=4) == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160 as Python's statistics.quantiles gives", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
}

func TestParseMetricsAndDeltas(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := parseMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"netout_vectors_traversed_total":                                    48684,
		`netout_shard_queries_total{shard="1"}`:                             3,
		`netout_shard_rpc_total{addr="127.0.0.1:19201",outcome="ok"}`:       3,
		`netout_shard_rpc_seconds_count{addr="127.0.0.1:19202"}`:            3,
		`netout_shard_rpc_seconds_sum{addr="127.0.0.1:19201"}`:              0.057603685,
		"netout_shard_merge_seconds_count":                                  3,
		`netout_query_phase_seconds_count{phase="scatter"}`:                 3,
		`netout_http_request_seconds_bucket{code="200",le="+Inf"}`:          3,
		`netout_query_phase_seconds_bucket{phase="reduce",le="+Inf"}`:       3,
		`netout_shard_rpc_seconds_bucket{addr="127.0.0.1:19201",le="+Inf"}`: 3,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if got := m.sumPrefix("netout_shard_rpc_seconds_count{"); got != 6 {
		t.Errorf("rpc calls summed over addr = %v, want 6", got)
	}
	phases := m.labelValues("netout_query_phase_seconds_sum", "phase")
	slices.Sort(phases)
	if want := []string{"merge", "parse", "plan", "reduce", "scatter", "validate"}; !slices.Equal(phases, want) {
		t.Errorf("phase labels %v, want %v", phases, want)
	}

	after := samples{}
	for k, v := range m {
		after[k] = v
	}
	after["netout_vectors_traversed_total"] += 16228
	after[`netout_shard_rpc_seconds_sum{addr="127.0.0.1:19201"}`] += 0.5
	after[`netout_new_total{x="a b"}`] = 7 // registered during the segment
	d := after.sub(m)
	if d["netout_vectors_traversed_total"] != 16228 || d[`netout_new_total{x="a b"}`] != 7 {
		t.Errorf("delta %v / %v", d["netout_vectors_traversed_total"], d[`netout_new_total{x="a b"}`])
	}
	if got := d[`netout_shard_rpc_seconds_sum{addr="127.0.0.1:19201"}`]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("labelled delta = %v, want 0.5", got)
	}
	if got := d["netout_shard_merge_seconds_count"]; got != 0 {
		t.Errorf("untouched series delta = %v", got)
	}

	if _, err := parseMetrics(strings.NewReader("a_total{l=\"x y\"} 3\nbroken\n")); err == nil {
		t.Error("a line without a value must be an error")
	}
	if m, err := parseMetrics(strings.NewReader("# HELP x\na_total{l=\"x y\"} 3\n")); err != nil || m[`a_total{l="x y"}`] != 3 {
		t.Errorf("label value with a space: %v %v", m, err)
	}
}

func TestParseHeap(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "heap.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, err := parseHeap(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := (heapStats{TotalAlloc: 59420248, Mallocs: 551974, NumGC: 12}); h != want {
		t.Errorf("heap trailer = %+v, want %+v", h, want)
	}
	if _, err := parseHeap(strings.NewReader("# TotalAlloc = 1\n# Mallocs = 2\n")); err == nil {
		t.Error("a trailer without NumGC must be an error")
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (net out) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 123 45 0 0 20 0 8 0 100 1000 200 18446744073709551615"
	if got, err := procCPUSeconds(stat); err != nil || got != 1.68 {
		t.Errorf("cpu seconds = %v, %v, want 1.68", got, err)
	}
	if _, err := procCPUSeconds("garbage"); err == nil {
		t.Error("garbage stat must be an error")
	}
	if got, err := procPeakRSSMiB("Name:\tnetout\nVmPeak:\t  999 kB\nVmHWM:\t   34816 kB\nVmRSS:\t 100 kB\n"); err != nil || got != 34 {
		t.Errorf("peak rss = %v, %v, want 34", got, err)
	}
}

func TestHostAdjustment(t *testing.T) {
	c := &calibrator{seeds: calibSeeds}
	// The host ran the kernel in 0.8× and 1.2× the reference time around a
	// segment: on average at reference speed.
	if got := c.speedIndex(0.8*calibRefS, 1.2*calibRefS); math.Abs(got-1) > 1e-12 {
		t.Errorf("speed index = %v, want 1", got)
	}
	// The shortened loop of -smoke scales the reference with its length.
	short := &calibrator{seeds: calibSeeds / 4}
	if got := short.speedIndex(calibRefS/4, calibRefS/4); math.Abs(got-1) > 1e-12 {
		t.Errorf("short-loop speed index = %v, want 1", got)
	}

	// A host at half speed (index 0.5) doubles every time and halves the
	// throughput; adjusted values must be what the reference host would show.
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i+1) * 2 // ms on the slow host; 1..100 ms at reference speed
	}
	r := &wlRun{w: &workload{name: "w", conns: 1, requests: make([]string, 100)}, peakRSS: 10, setupS: []float64{0.2}}
	r.segs = []segment{{round: 1, attempted: 100, ok: 100, speed: 0.5, wallS: 4, latMs: lat, cpuS: 2, allocB: 100 * 2048}}
	wr := r.result(testSpec(t))
	for name, want := range map[string]float64{
		"throughput_qps":            50, // 25/s raw ÷ 0.5
		"latency_p50_ms":            50,
		"latency_p90_ms":            90,
		"server_cpu_ms_per_query":   10, // 20 ms raw × 0.5
		"server_alloc_kb_per_query": 2,  // not a time: unadjusted
		"server_peak_rss_mb":        10,
		"setup_s":                   0.2,
	} {
		if got := wr.EndToEnd[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]float64{"raw.throughput_qps": 25, "raw.latency_p50_ms": 100, "raw.latency_p90_ms": 180, "host.speed_index": 0.5} {
		if got := wr.Layers[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestCalibrationWorkIsConstant(t *testing.T) {
	g := newCalibGraph()
	ops1, sum1 := g.run(40)
	ops2, sum2 := g.run(40)
	if ops1 != ops2 || sum1 != sum2 || ops1 == 0 {
		t.Errorf("two calls did %d and %d operations (checksums %v, %v)", ops1, ops2, sum1, sum2)
	}
	if ops, sum := newCalibGraph().run(40); ops != ops1 || sum != sum1 {
		t.Errorf("a fresh graph did %d operations, the first %d", ops, ops1)
	}
}

func TestSchedule(t *testing.T) {
	schedule := func(c config, elapsed time.Duration) (got []bool) {
		for i := 0; i < 100; i++ {
			traced, ok := c.next(i, elapsed)
			if !ok {
				break
			}
			got = append(got, traced)
		}
		return got
	}
	u, tr := false, true
	if got, want := schedule(config{rounds: 10, tracedEvery: 2}, time.Hour), []bool{u, u, tr, u, u, tr, u, u, tr, u, u, tr, u, u, tr}; !slices.Equal(got, want) {
		t.Errorf("full run ran %v, want %v", got, want)
	}
	if got, want := schedule(config{rounds: 1, tracedEvery: 1}, time.Hour), []bool{u, tr}; !slices.Equal(got, want) {
		t.Errorf("-smoke ran %v, want %v", got, want)
	}
	// Timed runs: at least four rounds however late it is, none traced
	// without tracedEvery, and a traced round always after its untraced one.
	if got, want := schedule(config{seconds: 10}, time.Hour), []bool{u, u, u, u}; !slices.Equal(got, want) {
		t.Errorf("late untraced timed run ran %v, want %v", got, want)
	}
	if got, want := schedule(config{seconds: 10, tracedEvery: 1}, time.Hour), []bool{u, tr, u, tr}; !slices.Equal(got, want) {
		t.Errorf("late alternating timed run ran %v, want %v", got, want)
	}
	alt := config{seconds: 10, tracedEvery: 1}
	if _, ok := alt.next(6, 5*time.Second); !ok {
		t.Error("six rounds took 5 s of 10: another pair fits")
	}
	if traced, ok := alt.next(7, time.Hour); !traced || !ok {
		t.Error("a traced round follows its untraced partner even past the deadline")
	}
	if _, ok := alt.next(8, 9500*time.Millisecond); ok {
		t.Error("eight rounds took 9.5 s of 10: half of another pair does not fit")
	}
}

func TestReplyCheck(t *testing.T) {
	want := answer{names: []string{"a", "b"}, scores: []uint64{math.Float64bits(0.1), math.Float64bits(2.5)}, candidates: 7, references: 7, skipped: 1}
	body := func(score string, partial bool) []byte {
		p := ""
		if partial {
			p = `"partial":true,`
		}
		return []byte(`{"entries":[{"rank":1,"name":"a","score":0.1},{"rank":2,"name":"b","score":` + score + `}],` + p + `"skipped":1,"candidates":7,"references":7,"total_us":321}`)
	}
	if us, err := (reply{status: 200, body: body("2.5", false)}).check(want); err != nil || us != 321 {
		t.Errorf("matching reply: %v, %v", us, err)
	}
	for name, r := range map[string]reply{
		"score off by one ulp": {status: 200, body: body("2.5000000000000004", false)},
		"partial":              {status: 200, body: body("2.5", true)},
		"status 503":           {status: 503, body: []byte(`{"error":{"code":"UNAVAILABLE"}}`)},
		"transport error":      {err: os.ErrDeadlineExceeded},
		"not json":             {status: 200, body: []byte("<html>")},
	} {
		if _, err := r.check(want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func fakeResult(sp *spec, seed int64, qps, vectors float64) *result {
	wr := &workloadResult{Conns: 1, EndToEnd: map[string]summary{}, Layers: map[string]layerValue{}}
	for _, d := range sp.EndToEnd {
		wr.EndToEnd[d.Name] = summary{Value: 100, Unit: d.Unit}
	}
	wr.EndToEnd["throughput_qps"] = summary{Value: qps, Unit: "1/s"}
	wr.Layers["mat.traversed_vectors_per_query"] = layerValue{Value: vectors, Unit: "count"}
	return &result{Seed: seed, Order: []string{"w"}, Workloads: map[string]*workloadResult{"w": wr}}
}

func TestCompare(t *testing.T) {
	sp := testSpec(t)
	fake := func(seed int64, qps, vectors float64) *result { return fakeResult(sp, seed, qps, vectors) }
	var out bytes.Buffer
	a := []*result{fake(1, 100, 8), fake(1, 104, 8), fake(1, 96, 8)}
	if code := compareSets(&out, sp, a, []*result{fake(1, 99, 8)}); code != 0 {
		t.Errorf("1%% lower throughput: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "identical in every run") {
		t.Errorf("equal work counts not confirmed:\n%s", out.String())
	}
	out.Reset()
	if code := compareSets(&out, sp, a, []*result{fake(1, 60, 9)}); code != 1 {
		t.Errorf("40%% lower throughput: exit %d", code)
	}
	for _, want := range []string{"beyond-bound", "-40.00%", "work count differs: w mat.traversed_vectors_per_query"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareSets(&out, sp, a, []*result{fake(2, 160, 9)}); code != 0 {
		t.Errorf("higher throughput is not a regression: exit %d", code)
	}
	for _, want := range []string{"better beyond bound", "different seeds"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	short := fake(1, 100, 8)
	short.Workloads["w"].Requests = 10
	if code := compareSets(&out, sp, a, []*result{short}); code != 2 || !strings.Contains(out.String(), "not the same protocol") {
		t.Errorf("a run over a shorter list was compared: exit %d\n%s", code, out.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the driver's contract and to the
// harness: every workload it names is one the harness builds, and every
// metric it names is one a real -smoke run emitted.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract allows exactly 6", len(keys))
	}
	sp := testSpec(t)
	if !slices.Equal(sp.Paths, []string{"bench"}) || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", sp.Paths, sp.RunSeconds)
	}

	g, err := generate(1)
	if err != nil {
		t.Fatal(err)
	}
	var built []string
	for _, w := range workloads(g, 1, 10) {
		built = append(built, w.name)
	}
	if !slices.Equal(sp.workloadNames(), built) {
		t.Errorf("BENCHMARK.json names workloads %v, the harness builds %v", sp.workloadNames(), built)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	claim := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for _, w := range sp.Workloads {
		claim(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range sp.EndToEnd {
		claim(d.Name)
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
		if d.Bound <= 0 || d.Bound > 0.25 || !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: bound %v, unit %q, better %q", d.Name, d.Bound, d.Unit, d.Better)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range sp.PerLayer {
		claim(d.Name)
		if d.Bound != 0 || !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: bound %v, unit %q, better %q", d.Name, d.Bound, d.Unit, d.Better)
		}
	}

	// Every name is emitted by a real -smoke run (testdata/smoke_result.json
	// is bench/out/result.json of one).
	smoke, err := readResult(filepath.Join("testdata", "smoke_result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(smoke.Order, sp.workloadNames()) {
		t.Errorf("smoke fixture ran %v", smoke.Order)
	}
	if missing := smoke.missing(sp); len(missing) > 0 {
		t.Errorf("the -smoke fixture lacks %v", missing)
	}
	for _, w := range smoke.Order {
		line, err := (&result{Order: []string{w}, Workloads: smoke.Workloads}).driverLine(sp, false)
		if err != nil {
			t.Errorf("%s: %v", w, err)
		}
		var parsed struct {
			Metrics map[string]layerValue `json:"metrics"`
		}
		if err := json.Unmarshal(line, &parsed); err != nil || len(parsed.Metrics) != len(sp.EndToEnd) {
			t.Errorf("%s: driver line carries %d end-to-end metrics, want %d (%v)", w, len(parsed.Metrics), len(sp.EndToEnd), err)
		}
		for _, d := range sp.EndToEnd {
			if parsed.Metrics[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w, d.Name)
			}
		}
	}
}
