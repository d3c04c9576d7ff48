package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"netout/internal/hin"
	"netout/internal/metapath"
	"netout/internal/xerr"
)

// Feature suggestion implements the last extension Section 8 sketches:
// "the system might even be able to suggest how the users can modify their
// queries to get more interesting, or more unusual, outliers."
//
// Given a query, SuggestFeatures keeps its candidate and reference sets but
// tries every schema-valid alternative feature meta-path (up to a hop
// limit) and ranks them by how sharply they separate outliers: paths under
// which all candidates score alike are uninteresting, paths with a heavy
// low tail single out strong outliers.

// Suggestion is one alternative feature meta-path, with the evidence that
// ranks it.
type Suggestion struct {
	// Path is the dotted meta-path, directly usable in a JUDGED BY clause.
	Path string
	// Separation measures how strongly the path isolates its top outlier:
	// the ratio (median Ω + 1)/(min Ω + 1). 1 means no separation.
	Separation float64
	// Characterized is the fraction of candidates with non-zero visibility
	// under the path (paths that characterize almost nobody rank low even
	// with large separation).
	Characterized float64
	// TopOutlier and TopScore preview the path's strongest outlier.
	TopOutlier string
	TopScore   float64
}

// SuggestFeatures evaluates alternative feature meta-paths for the query's
// candidate/reference sets and returns them ranked, best first. maxHops
// bounds the explored path length (2 or 4 are sensible; values below 2 are
// raised to 2). The query's own feature paths are included in the ranking,
// so the user can see where their current choice stands. Like Execute it is
// one query to the engine's record: traced, counted and emitted as one event,
// a panic returned as its *PanicError.
func (e *Engine) SuggestFeatures(src string, maxHops int) ([]Suggestion, error) {
	var out []Suggestion
	_, err := e.execute(context.Background(), src, nil, 1, func(ctx context.Context, plan *queryPlan, hs handles, _ *Result) error {
		if len(plan.cands) < 3 {
			return xerr.Newf(xerr.InvalidArgument, "core: candidate set too small (%d) to rank feature paths", len(plan.cands))
		}
		for _, p := range metapath.Enumerate(e.g.Schema(), plan.elemType, 2, max(maxHops, 2)) {
			sug, ok, err := e.evaluateFeaturePath(ctx, hs, p, plan.cands, plan.refs)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, sug)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(a, b int) bool {
		// Prefer sharply separating paths that still characterize most of
		// the candidate set.
		sa := out[a].Separation * out[a].Characterized
		sb := out[b].Separation * out[b].Characterized
		if sa != sb {
			return sa > sb
		}
		return out[a].Path < out[b].Path
	})
	return out, nil
}

// evaluateFeaturePath scores the candidates under p alone, the way Execute
// would: one path at weight 1, so its scorer is the measure's whole reference
// side and the weighted mean of one score is that score bit for bit. ok is
// false when p characterizes fewer than three candidates.
func (e *Engine) evaluateFeaturePath(ctx context.Context, hs handles, p metapath.Path, cands, refs []hin.VertexID) (Suggestion, bool, error) {
	plan := &queryPlan{resolvedQuery: &resolvedQuery{cands: cands, refs: refs, paths: []metapath.Path{p}, weights: []float64{1}, combine: CombineAverage}}
	scorers, held, err := e.referenceSide(ctx, plan, hs)
	if err != nil {
		return Suggestion{}, false, err
	}
	cs, err := newCandidateSide(ctx, e.g, hs.mats[0], scorers, e.measure, plan.paths, cands, held)
	if err != nil {
		return Suggestion{}, false, err
	}
	// Unbounded, so the ranking is every characterized candidate in
	// (score, vertex) order.
	rr := scoreRange(ctx, cs, hs.mats[0], 0, len(cands), 0)
	if rr.err != nil {
		return Suggestion{}, false, rr.err
	}
	ranked := rr.entries
	if len(ranked) < 3 {
		return Suggestion{}, false, nil
	}
	top, median := ranked[0], ranked[len(ranked)/2].Score
	return Suggestion{
		Path:          p.Dotted(e.g.Schema()),
		Separation:    (median + 1) / (top.Score + 1),
		Characterized: float64(len(ranked)) / float64(len(cands)),
		TopOutlier:    top.Name,
		TopScore:      top.Score,
	}, true, nil
}

// FormatSuggestions renders suggestions for terminal display.
func FormatSuggestions(sugs []Suggestion, limit int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-40s %12s %8s %-24s %s\n", "feature meta-path", "separation", "charac.", "top outlier", "Ω")
	for i, s := range sugs {
		if limit > 0 && i >= limit {
			break
		}
		fmt.Fprintf(&sb, "%-40s %12.2f %7.0f%% %-24s %.3f\n",
			s.Path, s.Separation, 100*s.Characterized, s.TopOutlier, s.TopScore)
	}
	return sb.String()
}
