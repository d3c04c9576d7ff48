package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"netout/internal/hin"
	"netout/internal/metapath"
)

// The cost-based planner behind the subpath cache (ROADMAP item 2, Atrapos-
// style): before materializing Φ_P it decides which intermediate frontiers
// are worth persisting, from live statistics the system already collects —
// per-(type,type) mean degrees sampled from the graph, type cardinalities and
// the cache's own hit-rate feedback. Persist/skip changes only which work is
// reused, so no planner choice can alter a result — only its cost. (It used
// to pin an expansion kernel per hop from the same estimates; measured, the
// traverser's own per-hop choice from the real frontier was faster, and the
// pinning kept the pull kernel out of reach.)

// planChoice enumerates the planner's recorded decisions, exported as
// netout_plan_decisions_total{choice=...}.
type planChoice int

const (
	// planFullTraverse: a cache miss found no usable prefix and started from
	// the source vertex.
	planFullTraverse planChoice = iota
	// planPrefixResume: a miss resumed from a cached prefix frontier.
	planPrefixResume
	// planPersistIntermediate: an intermediate frontier was persisted for
	// future paths to resume from.
	planPersistIntermediate

	planChoiceCount
)

func (c planChoice) String() string {
	switch c {
	case planFullTraverse:
		return "full-traverse"
	case planPrefixResume:
		return "prefix-resume"
	case planPersistIntermediate:
		return "persist-intermediate"
	}
	return "unknown"
}

// Planner cost-model constants.
const (
	// plannerReplanEvery bounds plan staleness: a memoized plan is rebuilt
	// after this many loads, picking up drifted hit rates and warmup exit.
	plannerReplanEvery = 1024
	// plannerDegreeSample caps the vertices sampled per (from, to) type pair
	// when estimating mean degree, so planning stays O(1) in graph size.
	plannerDegreeSample = 4096
	// plannerWarmupLoads is the optimistic-persist window: below this many
	// loads the cache has no meaningful hit-rate signal yet, and refusing to
	// persist would be a self-fulfilling prophecy (nothing cached → no hits
	// → nothing cached).
	plannerWarmupLoads = 256
	// plannerMinHitRate is the reuse signal required to keep persisting
	// intermediates after warmup.
	plannerMinHitRate = 0.02
	// plannerMinWorkSaved is the minimum estimated edges a prefix resume
	// must skip for its boundary to be worth a cache slot — boundaries
	// cheaper than this are recomputed faster than they are looked up.
	plannerMinWorkSaved = 16
	// plannerEntryShare caps one persisted intermediate at 1/plannerEntryShare
	// of the cache budget: a single huge frontier must not evict the long
	// tail of small, highly-reusable entries.
	plannerEntryShare = 64
	// plannerBytesPerNNZ is the storage cost estimate per frontier
	// coordinate (int32 index + float64 value), plus fixed entry overhead.
	plannerBytesPerNNZ = 12
	plannerEntryFixed  = 64
)

// pathPlan is the planner's memoized decision set for one meta-path.
type pathPlan struct {
	// builtAt is the planner load count when the plan was built (staleness).
	builtAt int64
	// est[h] is the estimated frontier NNZ after h hops (est[0] = 1).
	est []float64
	// persist[b], for 2 <= b < Len, marks the prefix of b types worth
	// persisting when traversal passes its boundary.
	persist []bool
	// summary is the rendered plan line stamped into traces and wide events.
	summary string
}

// Planner picks subpath-evaluation plans from live graph and cache
// statistics. It is safe for concurrent use; plans are memoized per path
// and rebuilt every plannerReplanEvery loads.
type Planner struct {
	g        *hin.Graph
	st       *sharedCacheState // hit-rate feedback; nil for standalone use
	maxBytes int64

	mu      sync.Mutex
	meanDeg map[uint16]float64 // (from<<8 | to) -> sampled mean out-degree
	plans   map[string]*pathPlan

	loads     atomic.Int64
	decisions [planChoiceCount]atomic.Int64
}

// newPlanner wires a planner to a cache's shared state (internal: NewCached
// builds one when the subpath cache is enabled).
func newPlanner(g *hin.Graph, st *sharedCacheState) *Planner {
	return &Planner{
		g:        g,
		st:       st,
		maxBytes: st.maxBytes,
		meanDeg:  make(map[uint16]float64),
		plans:    make(map[string]*pathPlan),
	}
}

// NewPlanner builds a standalone planner over g with the given cache byte
// budget, without hit-rate feedback (reuse is assumed). For tests and
// tooling; NewCached(WithSubpathCache()) wires the feedback-connected one.
func NewPlanner(g *hin.Graph, cacheBytes int64) *Planner {
	return &Planner{
		g:        g,
		maxBytes: cacheBytes,
		meanDeg:  make(map[uint16]float64),
		plans:    make(map[string]*pathPlan),
	}
}

// planFor returns the current plan for p, counting one load against the
// replan cadence.
func (pl *Planner) planFor(p metapath.Path) *pathPlan {
	return pl.plan(p, pl.loads.Add(1))
}

// PlanSummary returns the rendered plan line for p — what the engine stamps
// into the query trace and wide event — without counting a load.
func (pl *Planner) PlanSummary(p metapath.Path) string {
	if p.IsZero() {
		return ""
	}
	return pl.plan(p, pl.loads.Load()).summary
}

// DecisionCounts returns the cumulative decision counters by choice label,
// matching the netout_plan_decisions_total metric family.
func (pl *Planner) DecisionCounts() map[string]int64 {
	out := make(map[string]int64, int(planChoiceCount))
	for c := planChoice(0); c < planChoiceCount; c++ {
		out[c.String()] = pl.decisions[c].Load()
	}
	return out
}

func (pl *Planner) count(c planChoice) { pl.decisions[c].Add(1) }

func (pl *Planner) plan(p metapath.Path, loads int64) *pathPlan {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pp, ok := pl.plans[p.Key()]; ok && loads-pp.builtAt < plannerReplanEvery {
		return pp
	}
	pp := pl.buildLocked(p, loads)
	pl.plans[p.Key()] = pp
	return pp
}

// buildLocked constructs a plan: frontier-size estimates by mean-degree
// products capped at type cardinality, persist boundaries from the
// work-saved/bytes trade-off under the reuse signal.
func (pl *Planner) buildLocked(p metapath.Path, loads int64) *pathPlan {
	hops := p.Hops()
	est := make([]float64, hops+1)
	est[0] = 1
	// cumEdges[h] estimates the edges traversed to complete hops 0..h-1 —
	// the work a resume from the boundary after hop h-1 skips.
	cumEdges := make([]float64, hops+1)
	for h := 0; h < hops; h++ {
		from, to := p.Type(h), p.Type(h+1)
		deg := pl.meanDegLocked(from, to)
		e := est[h] * deg
		if lim := float64(pl.g.NumVerticesOfType(to)); e > lim {
			e = lim
		}
		est[h+1] = e
		cumEdges[h+1] = cumEdges[h] + est[h]*deg
	}
	persist := make([]bool, p.Len())
	reuse := pl.reuseLikely(loads)
	for b := 2; b < p.Len(); b++ {
		bytesEst := int64(est[b-1]*plannerBytesPerNNZ) + plannerEntryFixed
		persist[b] = reuse &&
			cumEdges[b-1] >= plannerMinWorkSaved &&
			bytesEst <= pl.maxBytes/plannerEntryShare
	}
	pp := &pathPlan{builtAt: loads, est: est, persist: persist}
	pp.summary = pl.renderPlan(p, pp, reuse)
	return pp
}

// meanDegLocked samples the mean out-degree from type `from` to type `to`,
// memoized per pair. A stride over the type's vertex list keeps the sample
// spread across the ID range instead of biased to the low IDs.
func (pl *Planner) meanDegLocked(from, to hin.TypeID) float64 {
	k := uint16(from)<<8 | uint16(to)
	if d, ok := pl.meanDeg[k]; ok {
		return d
	}
	vs := pl.g.VerticesOfType(from)
	n := len(vs)
	if n == 0 {
		pl.meanDeg[k] = 0
		return 0
	}
	if n > plannerDegreeSample {
		n = plannerDegreeSample
	}
	step := len(vs) / n
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(pl.g.Degree(vs[i*step], to))
	}
	d := sum / float64(n)
	pl.meanDeg[k] = d
	return d
}

// reuseLikely reports whether persisted intermediates can expect reuse:
// optimistically yes during warmup (no signal yet), afterwards only while
// the cache's observed hit rate clears the floor. A standalone planner
// (no cache state) always assumes reuse.
func (pl *Planner) reuseLikely(loads int64) bool {
	if pl.st == nil || loads <= plannerWarmupLoads {
		return true
	}
	hits, misses := pl.st.hits.Load(), pl.st.misses.Load()
	total := hits + misses
	return total == 0 || float64(hits)/float64(total) >= plannerMinHitRate
}

// renderPlan formats one plan as a single trace/event line, e.g.
//
//	plan (0 1 2 1 0): est=[1 3 2 90 200] persist=[3] waist=venue@2
//
// waist= names the boundaries misses of this path finish from (type@hops
// done): with one, a miss expands up to it and combines the rest, which is
// why it is fast — or, marked "(dropped)", why it no longer is: the suffix's
// table outgrew its share of the budget.
func (pl *Planner) renderPlan(p metapath.Path, pp *pathPlan, reuse bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %s: est=[", p.String())
	for i, e := range pp.est {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%.0f", e)
	}
	sb.WriteString("] persist=[")
	first := true
	for b, on := range pp.persist {
		if !on {
			continue
		}
		if !first {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", b)
		first = false
	}
	sb.WriteString("]")
	ratio := waistRatio
	if pl.st != nil {
		ratio = pl.st.waists.ratio
	}
	sep := " waist="
	for b := 1; b < p.Hops(); b++ {
		if !isWaist(pl.g, p, b, ratio) {
			continue
		}
		fmt.Fprintf(&sb, "%s%s@%d", sep, pl.g.Schema().TypeName(p.Type(b)), b)
		if pl.st != nil && pl.st.waistDropped(p.Key()[b:]) {
			sb.WriteString("(dropped)")
		}
		sep = ","
	}
	if !reuse {
		sb.WriteString(" (reuse unlikely: persistence off)")
	}
	return sb.String()
}
