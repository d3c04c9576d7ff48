package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// A miniature Prometheus text-format (0.0.4) conformance parser. scrapeMetrics
// elsewhere only splits on the last space; this parser checks the structural
// rules a real scraper relies on — one HELP/TYPE header per family with TYPE
// preceding its samples, escape-correct label bodies, cumulative `le` buckets
// and `_sum`/`_count` consistency — so an escaping or ordering regression
// fails here instead of in a fleet's Prometheus.

type promSample struct {
	family string
	labels map[string]string
	value  float64
}

type promFamily struct {
	typ     string
	help    string
	samples []promSample
}

// parseExposition parses text, failing the test on any structural violation.
func parseExposition(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	lastHeader := "" // family the preceding TYPE line declared
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			sp := strings.IndexByte(rest, ' ')
			if sp < 0 {
				t.Fatalf("line %d: HELP without text: %q", ln, line)
			}
			fam := rest[:sp]
			if f, ok := families[fam]; ok && f.help != "" {
				t.Fatalf("line %d: duplicate HELP for family %s", ln, fam)
			}
			if _, ok := families[fam]; !ok {
				families[fam] = &promFamily{}
			}
			families[fam].help = rest[sp+1:]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln, line)
			}
			fam, typ := parts[0], parts[1]
			if f, ok := families[fam]; ok && f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for family %s", ln, fam)
			}
			if _, ok := families[fam]; !ok {
				families[fam] = &promFamily{}
			}
			families[fam].typ = typ
			lastHeader = fam
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln, line)
		}
		s := parseSampleLine(t, ln, line)
		fam := s.family
		// Histogram series attach to their base family.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(fam, suffix)
			if base != fam {
				if f, ok := families[base]; ok && f.typ == "histogram" {
					fam = base
				}
				break
			}
		}
		f, ok := families[fam]
		if !ok || f.typ == "" {
			t.Fatalf("line %d: sample %q before its family's TYPE header", ln, line)
		}
		if fam != lastHeader {
			t.Fatalf("line %d: sample for %s interleaved into family %s's block", ln, fam, lastHeader)
		}
		f.samples = append(f.samples, s)
	}
	return families
}

// parseSampleLine parses `name{k="v",...} value` with an escape-aware label
// scan (the value may contain escaped quotes).
func parseSampleLine(t *testing.T, ln int, line string) promSample {
	t.Helper()
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s := promSample{family: line[:i], labels: map[string]string{}}
	if !isValidMetricName(s.family) {
		t.Fatalf("line %d: invalid metric name %q", ln, s.family)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			j := i
			for j < len(line) && line[j] != '=' {
				j++
			}
			lname := line[i:j]
			if !isValidLabelName(lname) {
				t.Fatalf("line %d: invalid label name %q in %q", ln, lname, line)
			}
			if j+1 >= len(line) || line[j+1] != '"' {
				t.Fatalf("line %d: label %s missing quoted value in %q", ln, lname, line)
			}
			k := j + 2
			var val strings.Builder
			for {
				if k >= len(line) {
					t.Fatalf("line %d: unterminated label value in %q", ln, line)
				}
				c := line[k]
				if c == '\\' {
					if k+1 >= len(line) {
						t.Fatalf("line %d: dangling escape in %q", ln, line)
					}
					switch line[k+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: invalid escape \\%c in %q", ln, line[k+1], line)
					}
					k += 2
					continue
				}
				if c == '"' {
					k++
					break
				}
				if c == '\n' {
					t.Fatalf("line %d: raw newline inside label value in %q", ln, line)
				}
				val.WriteByte(c)
				k++
			}
			s.labels[lname] = val.String()
			if k < len(line) && line[k] == ',' {
				i = k + 1
				continue
			}
			if k < len(line) && line[k] == '}' {
				i = k + 1
				break
			}
			t.Fatalf("line %d: expected ',' or '}' after label value in %q", ln, line)
		}
	}
	if i >= len(line) || line[i] != ' ' {
		t.Fatalf("line %d: missing value separator in %q", ln, line)
	}
	raw := line[i+1:]
	v, err := parsePromValue(raw)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, raw, err)
	}
	s.value = v
	return s
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistogram validates the bucket series of one histogram family split by
// its non-le label set: ascending le with cumulative counts, a +Inf bucket,
// and agreement with _count.
func checkHistogram(t *testing.T, famName string, fam *promFamily) {
	t.Helper()
	type series struct {
		lastLe    float64
		lastCum   float64
		infBucket float64
		haveInf   bool
		count     float64
		haveCount bool
		haveSum   bool
	}
	groups := map[string]*series{}
	groupKey := func(labels map[string]string) string {
		var parts []string
		for k, v := range labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		// Order-stable enough for test labels (at most one extra label).
		return strings.Join(parts, ",")
	}
	get := func(labels map[string]string) *series {
		k := groupKey(labels)
		if groups[k] == nil {
			groups[k] = &series{lastLe: math.Inf(-1), lastCum: -1}
		}
		return groups[k]
	}
	for _, s := range fam.samples {
		switch s.family {
		case famName + "_bucket":
			g := get(s.labels)
			le, err := parsePromValue(s.labels["le"])
			if err != nil {
				t.Fatalf("%s: bad le %q", famName, s.labels["le"])
			}
			if le <= g.lastLe {
				t.Fatalf("%s: le buckets not ascending (%v after %v)", famName, le, g.lastLe)
			}
			if s.value < g.lastCum {
				t.Fatalf("%s: bucket counts not cumulative (%v after %v at le=%v)", famName, s.value, g.lastCum, le)
			}
			g.lastLe, g.lastCum = le, s.value
			if math.IsInf(le, 1) {
				g.infBucket, g.haveInf = s.value, true
			}
		case famName + "_sum":
			get(s.labels).haveSum = true
		case famName + "_count":
			g := get(s.labels)
			g.count, g.haveCount = s.value, true
		case famName:
			t.Fatalf("%s: histogram family has a bare sample", famName)
		}
	}
	for key, g := range groups {
		if !g.haveInf {
			t.Fatalf("%s{%s}: no +Inf bucket", famName, key)
		}
		if !g.haveSum || !g.haveCount {
			t.Fatalf("%s{%s}: missing _sum or _count", famName, key)
		}
		if g.infBucket != g.count {
			t.Fatalf("%s{%s}: +Inf bucket %v != _count %v", famName, key, g.infBucket, g.count)
		}
	}
}

func TestExpositionConformance(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`netout_queries_total{outcome="ok"}`, "Queries by outcome.").Add(7)
	reg.Counter(`netout_queries_total{outcome="error"}`, "Queries by outcome.").Add(2)
	var indexBytes atomic.Int64
	indexBytes.Store(1.5e6)
	reg.GaugeFunc("netout_index_bytes", "Index size.", func() float64 { return float64(indexBytes.Load()) })
	reg.GaugeFunc("netout_workers", "Workers.", func() float64 { return 4 })
	h := reg.Histogram("netout_query_seconds", "Query latency.")
	for _, v := range []float64{0.0001, 0.003, 0.02, 0.4, 30} { // incl. +Inf bucket
		h.Observe(v)
	}
	// A labeled histogram — the serve layer's netout_http_request_seconds shape.
	reg.Histogram(`netout_http_request_seconds{code="200"}`, "Request latency.").Observe(0.01)
	reg.Histogram(`netout_http_request_seconds{code="500"}`, "Request latency.").Observe(0.2)
	// Hostile dynamic label values and HELP text must be escaped, not corrupting.
	reg.Counter("netout_evil_total{q=\"a\\\"b\\\\c\nd\"}", "Help with \\ and\nnewline.").Inc()
	// The shard tier's families (core.observeQuery shape): a per-shard
	// labeled counter, a bare partials counter and the merge histogram.
	reg.Counter(`netout_shard_queries_total{shard="0"}`, "Shard requests by shard.").Add(5)
	reg.Counter(`netout_shard_queries_total{shard="1"}`, "Shard requests by shard.").Add(5)
	reg.Counter("netout_shard_partials_total", "Shard partials.").Inc()
	reg.Histogram("netout_shard_merge_seconds", "Merge latency.").Observe(0.0004)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	fams := parseExposition(t, sb.String())

	q := fams["netout_queries_total"]
	if q == nil || q.typ != "counter" || len(q.samples) != 2 {
		t.Fatalf("netout_queries_total family = %+v", q)
	}
	var sum float64
	for _, s := range q.samples {
		sum += s.value
	}
	if sum != 9 {
		t.Fatalf("outcome counters sum to %v, want 9", sum)
	}
	if g := fams["netout_index_bytes"]; g == nil || g.typ != "gauge" || g.samples[0].value != 1.5e6 {
		t.Fatalf("netout_index_bytes = %+v", g)
	}
	if g := fams["netout_workers"]; g == nil || g.typ != "gauge" || g.samples[0].value != 4 {
		t.Fatalf("netout_workers = %+v", g)
	}
	for _, fam := range []string{"netout_query_seconds", "netout_http_request_seconds", "netout_shard_merge_seconds"} {
		f := fams[fam]
		if f == nil || f.typ != "histogram" {
			t.Fatalf("%s family = %+v", fam, f)
		}
		checkHistogram(t, fam, f)
	}
	sq := fams["netout_shard_queries_total"]
	if sq == nil || sq.typ != "counter" || len(sq.samples) != 2 {
		t.Fatalf("netout_shard_queries_total family = %+v", sq)
	}
	for _, s := range sq.samples {
		if s.value != 5 || (s.labels["shard"] != "0" && s.labels["shard"] != "1") {
			t.Fatalf("netout_shard_queries_total sample = %+v", s)
		}
	}
	if p := fams["netout_shard_partials_total"]; p == nil || p.typ != "counter" || p.samples[0].value != 1 {
		t.Fatalf("netout_shard_partials_total = %+v", p)
	}
	// The hostile label value round-trips through escaping.
	evil := fams["netout_evil_total"]
	if evil == nil || len(evil.samples) != 1 {
		t.Fatalf("netout_evil_total = %+v", evil)
	}
	if got := evil.samples[0].labels["q"]; got != "a\"b\\c\nd" {
		t.Fatalf("escaped label value round-tripped to %q", got)
	}
	if !strings.Contains(evil.help, `\\`) || !strings.Contains(evil.help, `\n`) {
		t.Fatalf("HELP not escaped: %q", evil.help)
	}
}

func TestRegistrationRejectsMalformedNames(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected a registration panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	mustPanic("bad family", func() { reg.Counter("netout-bad-name", "h") })
	mustPanic("leading digit", func() { reg.Counter("9lives_total", "h") })
	mustPanic("empty family", func() { reg.Counter(`{code="200"}`, "h") })
	mustPanic("bad label name", func() { reg.Counter(`netout_x_total{bad-label="v"}`, "h") })
	mustPanic("unquoted value", func() { reg.Counter(`netout_x_total{code=200}`, "h") })
	mustPanic("unterminated value", func() { reg.Counter(`netout_x_total{code="200}`, "h") })

	// A `"` not followed by ',' or end-of-body is CONTENT by design (the
	// escape-aware recovery for hostile dynamic values), so a missing comma
	// folds the rest into the first value — ugly, but the exposition stays
	// structurally valid.
	reg.Counter(`netout_x_total{a="1"b="2"}`, "h").Inc()
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	fams := parseExposition(t, sb.String())
	if got := fams["netout_x_total"].samples[0].labels["a"]; got != `1"b="2` {
		t.Fatalf("recovered label value = %q, want the folded remainder", got)
	}
}

// TestInstrumentsConcurrentWithScrapes is the -race stress test: histogram
// observations, gauge updates and full scrapes all running concurrently, with
// the final exposition agreeing exactly with the work done.
func TestInstrumentsConcurrentWithScrapes(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("netout_stress_seconds", "Stress.")
	var level atomic.Int64
	reg.GaugeFunc("netout_stress_gauge", "Stress.", func() float64 { return float64(level.Load()) })
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%5) * 0.005)
				level.Add(1)
				level.Add(-1)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	// Scrape and parse concurrently with the updates (on the test goroutine,
	// so parse failures can Fatal): every intermediate exposition must stay
	// structurally valid while the instruments race.
	for {
		var sb strings.Builder
		reg.WritePrometheus(&sb)
		parseExposition(t, sb.String())
		select {
		case <-done:
		default:
			continue
		}
		break
	}

	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	wantSum := 0.0
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i%5) * 0.005 * workers
	}
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), wantSum)
	}
	if level.Load() != 0 {
		t.Fatalf("gauge = %v, want 0 after balanced adds", level.Load())
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	fams := parseExposition(t, sb.String())
	checkHistogram(t, "netout_stress_seconds", fams["netout_stress_seconds"])
	for _, s := range fams["netout_stress_seconds"].samples {
		if s.family == "netout_stress_seconds_count" && s.value != workers*perWorker {
			t.Fatalf("scraped count %v, want %d", s.value, workers*perWorker)
		}
	}
}
