// Package obs is the zero-dependency observability layer: a process-wide
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms, exposed in Prometheus text format), per-query trace spans
// recording the engine's phase breakdown, and a bounded slow-query log.
// The paper's whole evaluation is a cost-accounting story (index time vs.
// traversal time, index bytes, per-strategy latency — Figures 4–5, Tables
// 4–6); this package makes those numbers continuously scrapeable from a
// serving process instead of read manually from ad-hoc structs.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus counter semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefLatencyBuckets are the default histogram bucket upper bounds for query
// latencies, in seconds: 100µs up to 10s, roughly logarithmic.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counters.
// Buckets are cumulative-upper-bound style ("le" semantics): an observation
// v lands in the first bucket with v <= upper bound, with an implicit +Inf
// bucket at the end.
type Histogram struct {
	upper   []float64 // ascending finite upper bounds
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ---------------------------------------------------------------------------
// Registry

type metricKind int

const (
	kindCounter metricKind = iota
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

type metric struct {
	name   string // full name, possibly with a {k="v",...} label suffix
	family string // name with the label suffix stripped
	labels string // label body without braces ("" when unlabeled)
	kind   metricKind
	help   string

	c  *Counter
	h  *Histogram
	fn func() float64
}

// Registry is a set of named metrics. Metric names follow Prometheus
// conventions and may carry a constant label suffix, e.g.
// `netout_queries_total{outcome="ok"}`; the part before '{' is the metric
// family (one # TYPE line per family in the exposition). All instruments
// are safe for concurrent use; registration itself is also concurrency-safe.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	seen    map[string]struct{} // Once keys
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// ---------------------------------------------------------------------------
// Name and label hygiene
//
// Metric names are built by string concatenation throughout the codebase
// (`netout_query_phase_seconds{phase="` + s.Phase + `"}`), so a label value
// containing `"`, `\` or a newline would otherwise corrupt the whole
// /metrics exposition. Registration therefore validates structure — family
// and label NAMES are compile-time constants here, so malformed ones panic
// as programming errors — and canonicalizes label VALUES, escaping whatever
// dynamic content reached them.

func isValidMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func isValidLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// escapeLabelValue escapes `\`, `"` and newlines per the exposition format.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// escapeHelp escapes `\` and newlines in HELP text.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// canonicalLabels parses a label body (`k="v",k2="v2"`) and re-serializes it
// with every value properly escaped. The scan is escape-aware: `\x` pairs
// belong to the value, and a `"` counts as the closing quote only at the end
// of the body or before a `,` — so raw quotes and newlines in a dynamic
// value are recovered and escaped instead of corrupting the exposition.
// Structurally malformed bodies (bad label name, missing `="` or closing
// quote) panic: the structure is always a code literal, so that is a
// programming error caught at registration, like a kind mismatch.
func canonicalLabels(name, body string) string {
	if body == "" {
		return ""
	}
	var out []string
	i := 0
	for i < len(body) {
		j := i
		for j < len(body) && body[j] != '=' {
			j++
		}
		lname := body[i:j]
		if !isValidLabelName(lname) || j+1 >= len(body) || body[j+1] != '"' {
			panic(fmt.Sprintf("obs: metric %q has malformed label %q", name, body))
		}
		k := j + 2
		var val strings.Builder
		closed := false
		for k < len(body) {
			c := body[k]
			if c == '\\' && k+1 < len(body) {
				switch body[k+1] {
				case 'n':
					val.WriteByte('\n')
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				default:
					val.WriteByte('\\')
					val.WriteByte(body[k+1])
				}
				k += 2
				continue
			}
			if c == '"' && (k+1 == len(body) || body[k+1] == ',') {
				closed = true
				k++
				break
			}
			val.WriteByte(c)
			k++
		}
		if !closed {
			panic(fmt.Sprintf("obs: metric %q has unterminated label value in %q", name, body))
		}
		out = append(out, lname+`="`+escapeLabelValue(val.String())+`"`)
		i = k
		if i < len(body) {
			if body[i] != ',' {
				panic(fmt.Sprintf("obs: metric %q has malformed label body %q", name, body))
			}
			i++
		}
	}
	return strings.Join(out, ",")
}

// register returns the existing metric under name (panicking if it has a
// different kind — mixing types under one name is a programming error, like
// expvar) or creates it with mk. The name is split, validated and
// canonicalized on first registration only: a served query looks up a dozen
// instruments, all registered long before.
func (r *Registry) register(name, help string, kind metricKind, mk func(m *metric)) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)",
				name, kind.promType(), m.kind.promType()))
		}
		if kind == kindCounterFunc || kind == kindGaugeFunc {
			mk(m) // func-backed metrics: last registration wins (pool restarts)
		}
		return m
	}
	family, labels := splitName(name)
	if !isValidMetricName(family) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	labels = canonicalLabels(name, labels)
	m := &metric{name: name, family: family, labels: labels, kind: kind, help: help}
	mk(m)
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func(m *metric) {
		if m.c == nil {
			m.c = &Counter{}
		}
	}).c
}

// Histogram returns the histogram registered under name, creating it if
// needed over DefLatencyBuckets — every series here is a latency in seconds.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram, func(m *metric) {
		if m.h == nil {
			m.h = newHistogram(nil)
		}
	}).h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. Use it to expose an existing atomic counter (a CacheStats field, a
// compiled-query cache's hits) without double-counting: the scrape reads the
// same source of truth the stats struct reports. Re-registering replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounterFunc, func(m *metric) { m.fn = fn })
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, func(m *metric) { m.fn = fn })
}

// Once reports whether key is being seen for the first time on this
// registry. Composite registration helpers use it to become idempotent per
// (registry, subject): guard the registration block with
// `if !reg.Once(key) { return }` and calling the helper twice — e.g. a
// ServePool and an ExecuteBatch sharing one registry and one materializer —
// registers the collectors once. Safe for concurrent use.
func (r *Registry) Once(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == nil {
		r.seen = make(map[string]struct{})
	}
	if _, ok := r.seen[key]; ok {
		return false
	}
	r.seen[key] = struct{}{}
	return true
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sample writes one `name{labels} value` line.
func writeSample(w io.Writer, family, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", family, formatValue(v))
	} else {
		fmt.Fprintf(w, "%s{%s} %s\n", family, labels, formatValue(v))
	}
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by family then full name, with
// one # HELP/# TYPE header per family.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].name < ms[j].name
	})
	lastFamily := ""
	for _, m := range ms {
		if m.family != lastFamily {
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.family, escapeHelp(m.help))
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.family, m.kind.promType())
			lastFamily = m.family
		}
		switch m.kind {
		case kindCounter:
			writeSample(w, m.family, m.labels, float64(m.c.Value()))
		case kindCounterFunc, kindGaugeFunc:
			writeSample(w, m.family, m.labels, m.fn())
		case kindHistogram:
			h := m.h
			var cum int64
			for i, ub := range h.upper {
				cum += h.counts[i].Load()
				writeSample(w, m.family+"_bucket", joinLabels(m.labels, `le="`+formatValue(ub)+`"`), float64(cum))
			}
			cum += h.counts[len(h.upper)].Load()
			writeSample(w, m.family+"_bucket", joinLabels(m.labels, `le="+Inf"`), float64(cum))
			writeSample(w, m.family+"_sum", m.labels, h.Sum())
			writeSample(w, m.family+"_count", m.labels, float64(h.Count()))
		}
	}
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}
