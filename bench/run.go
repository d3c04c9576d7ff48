package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"netout"
)

// config is one invocation's protocol. The three modes (full run, -smoke,
// and the one-workload runs the benchmark driver makes) differ only in
// these numbers.
type config struct {
	spec  *spec
	seed  int64
	names []string // workloads, in round-robin order
	// A fixed protocol makes rounds untraced rounds; a timed one (seconds > 0)
	// makes rounds for about that long. In both a traced round follows every
	// tracedEvery untraced ones (0: none is traced), so every traced segment
	// has untraced neighbours to be compared with.
	rounds, tracedEvery int
	seconds             float64
	boots               int  // timed boots per workload for setup_s
	div                 int  // request lists are 1/div of full length
	calibSeeds          int  // calibration loop length
	layerPass           bool // run the in-process layer pass
}

// next says whether round i runs and whether it is traced. A timed run
// makes at least four rounds, never parts a traced round from the untraced
// ones before it, and starts another group only while half of one more still
// fits in its seconds, so that it measures for about that long and not for
// up to one whole group longer.
func (c config) next(i int, elapsed time.Duration) (traced, ok bool) {
	period := c.tracedEvery + 1
	traced = c.tracedEvery > 0 && i%period == period-1
	if c.seconds == 0 {
		return traced, i < c.rounds/max(c.tracedEvery, 1)*period
	}
	fits := elapsed.Seconds()*(1+float64(period)/2/float64(max(i, 1))) < c.seconds
	return traced, i%period != 0 || i < 4 || fits
}

// segment is one replay of a workload's list, with what was read around it.
type segment struct {
	round, attempted, ok int
	traced               bool
	speed                float64   // host speed index during the segment
	wallS                float64   // first send to last reply
	latMs                []float64 // client-observed, correct replies only, ascending
	cpuS, allocB         float64   // server deltas
	// traced segments only
	clientUs, overheadUs, bytes float64 // sums over correct replies
	roundTripUs                 float64 // a request that does no work, median
	mallocs, gcs                float64
	coord, shards               samples // /metrics deltas
}

// wlRun is one workload's state across the run.
type wlRun struct {
	w         *workload
	topo      *topology
	cl        *client
	setupS    []float64 // host-adjusted boot times
	segs      []segment
	spans     []span
	peakRSS   float64
	lastCoord samples // latest coordinator scrape, for gauges
	attempted int
	failed    int
	failures  []string // the first few, for the report
}

func (r *wlRun) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type harness struct {
	cfg   config
	bin   string
	tsv   string
	g     *netout.Graph
	want  map[string]answer
	cal   *calibrator
	epoch time.Time
	runs  []*wlRun
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// run executes cfg and returns the result. Child processes and the temp
// directory (the graph file) are gone when it returns, whatever the outcome.
func run(cfg config) (*result, error) {
	h := &harness{cfg: cfg, epoch: time.Now()}
	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer cleanup()
	if err := startWatchdog(tmp); err != nil {
		return nil, err
	}

	h.bin = filepath.Join(outDir, "bin", "netout")
	if err := buildNetout(h.bin); err != nil {
		return nil, err
	}
	if err := h.prepare(tmp); err != nil {
		return nil, err
	}
	logf("built cmd/netout, made the inputs and %d expected answers in %.1f s", len(h.want), time.Since(h.epoch).Seconds())
	h.cal = newCalibrator(cfg.calibSeeds)
	if err := h.setup(); err != nil {
		return nil, err
	}
	began := time.Now()
	if err := h.measure(); err != nil {
		return nil, err
	}
	logf("measured %d segments in %.1f s", len(h.runs)*len(h.runs[0].segs), time.Since(began).Seconds())
	for _, r := range h.runs {
		r.cl.close()
		r.topo.stop()
	}
	res := h.result()
	if cfg.layerPass {
		for _, r := range h.runs {
			lp, err := layerPass(h.g, r.w, h.epoch)
			if err != nil {
				return nil, fmt.Errorf("%s layer pass: %w", r.w.name, err)
			}
			r.spans = append(r.spans, lp.spans...)
			res.Workloads[r.w.name].addLayerPass(lp)
		}
	}
	if err := h.writeSpans(); err != nil {
		return nil, err
	}
	return res, nil
}

// prepare makes the inputs from the seed: the graph as a TSV file (all the
// servers ever see of it), the request lists and the expected answers.
func (h *harness) prepare(tmp string) error {
	g, err := generate(h.cfg.seed)
	if err != nil {
		return err
	}
	h.tsv = filepath.Join(tmp, "graph.tsv")
	if err := netout.SaveGraph(h.tsv, g); err != nil {
		return err
	}
	// The harness works on the graph as the servers load it, not as the
	// generator built it.
	if h.g, err = netout.LoadGraph(h.tsv); err != nil {
		return err
	}
	var lists [][]string
	for _, w := range workloads(h.g, h.cfg.seed, h.cfg.div) {
		for _, name := range h.cfg.names {
			if w.name == name {
				h.runs = append(h.runs, &wlRun{w: w})
				lists = append(lists, w.requests)
			}
		}
	}
	if len(h.runs) != len(h.cfg.names) {
		return fmt.Errorf("unknown workload in %v", h.cfg.names)
	}
	h.want, err = expectedAnswers(h.g, lists...)
	return err
}

// setup times cfg.boots boots of every workload's topology, a calibration
// reading between each, then boots the topologies that will be measured and
// replays every list once untimed.
func (h *harness) setup() error {
	for _, r := range h.runs {
		before := h.cal.read()
		for i := 0; i < h.cfg.boots; i++ {
			topo, took, err := boot(h.bin, h.tsv, r.w)
			if err != nil {
				return err
			}
			topo.stop()
			after := h.cal.read()
			r.setupS = append(r.setupS, took.Seconds()*h.cal.speedIndex(before, after))
			before = after
		}
	}
	for _, r := range h.runs {
		topo, _, err := boot(h.bin, h.tsv, r.w)
		if err != nil {
			return err
		}
		r.topo = topo
		r.cl = newClient(topo.queryURL(), r.w.conns, h.epoch)
		replies, _ := r.cl.replay(r.w.requests, "")
		h.check(r, replies, nil)
		logf("%s up, warmed with %d requests (%d failed)", r.w.name, len(replies), r.failed)
	}
	return nil
}

// check compares every reply of a pass with its expected answer and fills
// seg (when given) with the latencies and sums of the correct ones.
func (h *harness) check(r *wlRun, replies []reply, seg *segment) {
	for i, rp := range replies {
		r.attempted++
		totalUs, err := rp.check(h.want[r.w.requests[i]])
		if err != nil {
			r.fail("request %d %q: %v", i, r.w.requests[i], err)
			continue
		}
		if seg == nil {
			continue
		}
		seg.ok++
		us := float64((rp.end - rp.start).Microseconds())
		seg.latMs = append(seg.latMs, us/1000)
		if seg.traced {
			seg.clientUs += us
			seg.overheadUs += us - float64(totalUs)
			seg.bytes += float64(len(rp.body))
			r.spans = append(r.spans, span{
				Workload: r.w.name, Trace: fmt.Sprintf("%s-r%d-%d", r.w.name, seg.round, i), ID: 1, Name: "client.query",
				StartUs: us64(rp.start), EndUs: us64(rp.end),
				Attrs: map[string]any{"round": seg.round, "conn": i % r.w.conns, "seq": i, "status": rp.status, "total_us": totalUs, "bytes": len(rp.body)},
			})
		}
	}
	if seg != nil {
		seg.latMs = sorted(seg.latMs)
	}
}

// measure runs the rounds: in each, one segment of every workload in turn,
// so all workloads sample the same stretches of host time. A calibration
// reading sits between every two segments; each segment is adjusted by the
// mean of the two around it.
func (h *harness) measure() error {
	began := time.Now()
	before := h.cal.read()
	for i := 0; ; i++ {
		traced, ok := h.cfg.next(i, time.Since(began))
		if !ok {
			break
		}
		for _, r := range h.runs {
			after, err := h.segment(r, i+1, traced, before)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", r.w.name, i+1, err)
			}
			before = after
		}
	}
	for _, r := range h.runs {
		rss, err := r.topo.peakRSSMiB()
		if err != nil {
			return err
		}
		r.peakRSS = rss
	}
	return nil
}

// segment replays r's list once. Server counters are read immediately
// before and after, never during; a traced segment also scrapes /metrics and
// tags its requests. It returns the calibration reading taken after it.
func (h *harness) segment(r *wlRun, round int, traced bool, calBefore float64) (calAfter float64, err error) {
	type reading struct {
		cpu           float64
		heap          heapStats
		coord, shards samples
	}
	read := func() (rd reading, err error) {
		select {
		case <-r.topo.servers[0].exited:
			return rd, fmt.Errorf("server exited: %s", r.topo.servers[0].stderr)
		default:
		}
		if rd.cpu, err = r.topo.cpuSeconds(); err != nil {
			return rd, err
		}
		if rd.heap, err = r.topo.heap(); err != nil {
			return rd, err
		}
		if traced {
			rd.coord, rd.shards, err = r.topo.metrics()
		}
		return rd, err
	}
	seg := segment{round: round, traced: traced, attempted: len(r.w.requests)}
	tag := ""
	if traced {
		tag = fmt.Sprintf("%s-r%d", r.w.name, round)
	}
	if traced {
		if seg.roundTripUs, err = r.cl.roundTripUs(r.topo.readyURL(), 100); err != nil {
			return 0, err
		}
	}
	pre, err := read()
	if err != nil {
		return 0, err
	}
	replies, wall := r.cl.replay(r.w.requests, tag)
	post, err := read()
	if err != nil {
		return 0, err
	}
	calAfter = h.cal.read()

	seg.speed = h.cal.speedIndex(calBefore, calAfter)
	seg.wallS = wall.Seconds()
	seg.cpuS = post.cpu - pre.cpu
	seg.allocB = post.heap.TotalAlloc - pre.heap.TotalAlloc
	if traced {
		seg.mallocs = post.heap.Mallocs - pre.heap.Mallocs
		seg.gcs = post.heap.NumGC - pre.heap.NumGC
		seg.coord, seg.shards = post.coord.sub(pre.coord), post.shards.sub(pre.shards)
		r.lastCoord = post.coord
	}
	h.check(r, replies, &seg)
	r.segs = append(r.segs, seg)
	return calAfter, nil
}

func us64(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

// writeSpans writes each workload's spans to <out>/spans-<workload>.jsonl.
func (h *harness) writeSpans() error {
	for _, r := range h.runs {
		if len(r.spans) == 0 {
			continue
		}
		if err := writeSpans(filepath.Join(outDir, "spans-"+r.w.name+".jsonl"), r.spans); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) result() *result {
	res := &result{
		Seed: h.cfg.seed, CalibRefS: calibRefS, CalibS: summarize(h.cal.times, "s"), CalibAll: h.cal.times,
		Workloads: map[string]*workloadResult{},
	}
	for _, r := range h.runs {
		res.Order = append(res.Order, r.w.name)
		res.Workloads[r.w.name] = r.result(h.cfg.spec)
	}
	for _, s := range h.runs[0].segs {
		if !s.traced {
			res.Rounds++
		}
	}
	return res
}

// result turns r's segments into the run's metric values: each end-to-end
// metric is the median over the untraced segments, host-adjusted where it is
// a time; layer metrics come from the traced segments' counter deltas.
func (r *wlRun) result(sp *spec) *workloadResult {
	wr := &workloadResult{
		spec: sp, Why: sp.why(r.w.name), Conns: r.w.conns, Requests: len(r.w.requests),
		Attempted: r.attempted, Succeeded: r.attempted - r.failed, Failed: r.failed, Failures: r.failures,
		EndToEnd: map[string]summary{}, Layers: map[string]layerValue{},
	}
	e2e := map[string][]float64{}
	var rawQps, rawP50, rawP90, speed, pooled, roundTrip, overhead []float64
	var tr segment // sums over the traced segments
	tr.coord, tr.shards = samples{}, samples{}
	adjustedP50 := func(s segment) float64 { return percentile(s.latMs, 0.50) * s.speed }
	for i, s := range r.segs {
		if len(s.latMs) == 0 {
			continue
		}
		wr.Segments = append(wr.Segments, segmentRow{
			Round: s.round, Traced: s.traced, SpeedIndex: s.speed, WallS: s.wallS, OK: s.ok,
			P50Ms: percentile(s.latMs, 0.50), P90Ms: percentile(s.latMs, 0.90), CPUS: s.cpuS, AllocKiB: s.allocB / 1024,
		})
		if s.traced {
			// Tracing overhead: a traced segment against the untraced segments
			// of this workload on either side of it, the closest in time.
			var around []float64
			for _, j := range []int{i - 1, i + 1} {
				if j >= 0 && j < len(r.segs) && !r.segs[j].traced && len(r.segs[j].latMs) > 0 {
					around = append(around, adjustedP50(r.segs[j]))
				}
			}
			if len(around) > 0 {
				overhead = append(overhead, adjustedP50(s)/mean(around)-1)
			}
			roundTrip = append(roundTrip, s.roundTripUs)
			tr.attempted += s.attempted
			tr.ok += s.ok
			tr.clientUs += s.clientUs
			tr.overheadUs += s.overheadUs
			tr.bytes += s.bytes
			tr.mallocs += s.mallocs
			tr.gcs += s.gcs
			tr.coord.add(s.coord)
			tr.shards.add(s.shards)
			continue
		}
		q := float64(s.attempted)
		rawQps = append(rawQps, float64(s.ok)/s.wallS)
		rawP50 = append(rawP50, percentile(s.latMs, 0.50))
		rawP90 = append(rawP90, percentile(s.latMs, 0.90))
		speed = append(speed, s.speed)
		pooled = append(pooled, s.latMs...)
		e2e["throughput_qps"] = append(e2e["throughput_qps"], float64(s.ok)/s.wallS/s.speed)
		e2e["latency_p50_ms"] = append(e2e["latency_p50_ms"], adjustedP50(s))
		e2e["latency_p90_ms"] = append(e2e["latency_p90_ms"], percentile(s.latMs, 0.90)*s.speed)
		e2e["server_cpu_ms_per_query"] = append(e2e["server_cpu_ms_per_query"], s.cpuS*1000/q*s.speed)
		e2e["server_alloc_kb_per_query"] = append(e2e["server_alloc_kb_per_query"], s.allocB/1024/q)
	}
	if len(r.setupS) > 0 {
		e2e["setup_s"] = r.setupS
	}
	if len(rawQps) > 0 {
		e2e["server_peak_rss_mb"] = []float64{r.peakRSS}

		ordered := sorted(speed)
		wr.setLayer("raw.throughput_qps", median(rawQps))
		wr.setLayer("raw.latency_p50_ms", median(rawP50))
		wr.setLayer("raw.latency_p90_ms", median(rawP90))
		wr.setLayer("raw.latency_p99_ms", percentile(sorted(pooled), 0.99))
		wr.setLayer("host.speed_index", median(speed))
		wr.setLayer("host.speed_spread", percentile(ordered, 0.90)/percentile(ordered, 0.10))
	}
	for name, values := range e2e {
		wr.EndToEnd[name] = summarize(values, sp.unit(name))
	}
	if tr.ok == 0 {
		return wr
	}

	q, ok := float64(tr.attempted), float64(tr.ok)
	perQueryUs := func(s samples, series string) float64 { return s[series] * 1e6 / q }
	wr.setLayer("http.client_us", tr.clientUs/ok)
	wr.setLayer("http.overhead_us", tr.overheadUs/ok)
	wr.setLayer("http.roundtrip_us", median(roundTrip))
	wr.setLayer("http.response_bytes", tr.bytes/ok)
	wr.setLayer("pool.queue_wait_us", perQueryUs(tr.coord, "netout_serve_queue_seconds_sum"))
	wr.setLayer("pool.execute_us", perQueryUs(tr.coord, "netout_serve_execute_seconds_sum"))
	phases := 0.0
	for _, p := range tr.coord.labelValues("netout_query_phase_seconds_sum", "phase") {
		us := perQueryUs(tr.coord, `netout_query_phase_seconds_sum{phase="`+p+`"}`)
		wr.setLayer("engine."+p+"_us", us)
		phases += us
	}
	hits, misses := tr.coord["netout_cache_hits_total"], tr.coord["netout_cache_misses_total"]
	wr.setLayer("cache.hit_rate", ratio(hits, hits+misses))
	wr.setLayer("cache.prefix_resumes_per_query", tr.coord["netout_cache_prefix_hits_total"]/q)
	wr.setLayer("cache.evictions_per_query", tr.coord["netout_cache_evictions_total"]/q)
	wr.setLayer("cache.hops_saved_per_query", tr.coord["netout_cache_hops_saved_total"]/q)
	wr.setLayer("cache.resident_mb", r.lastCoord["netout_cache_bytes"]/(1<<20))
	// The coordinator's vector counter already sums its shards' replies.
	// Traversal time comes from the materializer's own series where the
	// strategy exports them (cached); the baseline exports none, and there
	// the materializing phases stand in for it.
	vectors := tr.coord["netout_vectors_traversed_total"]
	traversalS := tr.coord["netout_mat_traversal_seconds_total"]
	if _, ok := tr.coord["netout_mat_traversal_seconds_total"]; !ok {
		for _, p := range []string{"materialize", "reduce", "scatter"} {
			traversalS += tr.coord[`netout_query_phase_seconds_sum{phase="`+p+`"}`]
		}
	}
	wr.setLayer("mat.traversed_vectors_per_query", vectors/q)
	wr.setLayer("mat.traversal_us_per_vector", ratio(traversalS*1e6, vectors))
	wr.setLayer("plan.decisions_per_query", tr.coord.sumPrefix("netout_plan_decisions_total{")/q)
	calls := tr.coord.sumPrefix("netout_shard_rpc_seconds_count{")
	wr.setLayer("shardrpc.rtt_us", ratio(tr.coord.sumPrefix("netout_shard_rpc_seconds_sum{")*1e6, calls))
	wr.setLayer("shardrpc.calls_per_query", calls/q)
	wr.setLayer("shardrpc.retries_per_query", tr.coord.sumPrefix("netout_shard_rpc_retries_total")/q)
	wr.setLayer("shardsrv.serve_us", ratio(tr.shards["netout_shardsrv_seconds_sum"]*1e6, tr.shards["netout_shardsrv_seconds_count"]))
	wr.setLayer("shard.merge_us", perQueryUs(tr.coord, "netout_shard_merge_seconds_sum"))
	wr.setLayer("proc.mallocs_per_query", tr.mallocs/q)
	wr.setLayer("proc.gc_per_1k_queries", tr.gcs/q*1000)
	// What the table explains of a request as the client sees it: the engine's
	// phases and the pool's queue from the server's counters, plus what HTTP
	// over loopback costs a request that does no work, measured on its own.
	// The rest — reading the body, the pool hand-off, encoding the reply — is
	// the share no layer metric accounts for.
	wr.setLayer("trace.attributed_share", ratio(median(roundTrip)+perQueryUs(tr.coord, "netout_serve_queue_seconds_sum")+phases, tr.clientUs/ok))
	wr.setLayer("trace.overhead_share", median(overhead))
	return wr
}

// setLayer records a per-layer value under the unit BENCHMARK.json gives it.
func (wr *workloadResult) setLayer(name string, v float64) {
	unit := wr.spec.unit(name)
	if unit == "" && strings.HasPrefix(name, "engine.") {
		unit = "us" // a phase label BENCHMARK.json does not list yet
	}
	wr.Layers[name] = layerValue{Value: v, Unit: unit}
}
