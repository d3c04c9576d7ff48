package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"netout/internal/hin"
	"netout/internal/obs"
	"netout/internal/oql"
	"netout/internal/sparse"
	"netout/internal/xerr"
)

// Explanations decompose a candidate's NetOut score — Execute's, bit for bit
// — coordinate by coordinate. Under feature meta-path P,
//
//	Ω(vi) = Φ(vi)·S / ‖Φ(vi)‖²  with  S = Σ_{vj∈Sr} Φ(vj),
//
// so each neighbor u the candidate reaches contributes
// Φ(vi)[u]·S[u]/‖Φ(vi)‖² to the score. Low total contribution — i.e. the
// candidate's connectivity mass sits on neighbors the reference set barely
// touches — is exactly what makes a vertex an outlier, and listing the
// coordinates makes the judgment auditable ("most of her papers are at
// SIGGRAPH, where the reference set has almost no presence").

// Contribution is one neighbor coordinate of an explanation.
type Contribution struct {
	// Neighbor is the vertex at this coordinate (a venue for the meta-path
	// author.paper.venue) and Name its display name.
	Neighbor hin.VertexID
	Name     string
	// CandidateCount is Φ(vi)[u]: the candidate's path count to Neighbor.
	CandidateCount float64
	// CandidateShare is the share of the candidate's squared connectivity
	// mass at this coordinate, Φ(vi)[u]²/‖Φ(vi)‖².
	CandidateShare float64
	// ReferenceCount is S[u]: the reference set's total path count to
	// Neighbor.
	ReferenceCount float64
	// Omega is this coordinate's additive contribution to the candidate's
	// NetOut score.
	Omega float64
}

// PathExplanation explains one feature meta-path's score for a candidate.
type PathExplanation struct {
	Path   string // dotted form
	Weight float64
	// Score is the candidate's Ω under this path alone (NaN if the
	// candidate has zero visibility under the path).
	Score float64
	// Visibility is ‖Φ(vi)‖², the candidate's potential connectivity.
	Visibility float64
	// Contributions lists the candidate's neighbor coordinates, largest
	// candidate share first, truncated to the requested limit.
	Contributions []Contribution
}

// Explanation is the full audit record for one candidate of a query.
type Explanation struct {
	Vertex hin.VertexID
	Name   string
	// Score is the candidate's combined score as Execute would report it.
	Score float64
	Paths []PathExplanation
	// Trace is the explanation's phase breakdown (parse → validate → plan →
	// materialize), printed by Format.
	Trace *obs.Trace
}

// Explain runs the query's set resolution and explains the given candidate
// vertex (by name, within the candidate element type). topN bounds the
// contributions listed per path (0 means all). Like Execute it is one query
// to the engine's record: traced, counted and emitted as one event, a panic
// returned as its *PanicError.
func (e *Engine) Explain(src string, candidateName string, topN int) (*Explanation, error) {
	var out *Explanation
	res, err := e.execute(context.Background(), src, nil, 1, func(ctx context.Context, plan *queryPlan, hs handles, _ *Result) error {
		if e.measure != MeasureNetOut {
			return xerr.Newf(xerr.InvalidArgument, "core: explanations are defined for the NetOut measure (engine uses %s)", e.measure)
		}
		target, ok := e.g.VertexByName(plan.elemType, candidateName)
		if !ok {
			return xerr.Newf(xerr.NotFound, "core: no %s named %q", e.g.Schema().TypeName(plan.elemType), candidateName)
		}
		if !containsVertex(plan.cands, target) {
			return xerr.Newf(xerr.InvalidArgument, "core: %q is not in the query's candidate set", candidateName)
		}
		// The candidate's Φ under every path, and S from referenceSide, the
		// function Execute reduces with, under CombineAverage: an
		// explanation is per path, whatever the engine combines with (no pool
		// shares this resolution).
		phis := make([]sparse.Vector, len(plan.paths))
		for i, p := range plan.paths {
			var err error
			if phis[i], err = hs.mats[0].NeighborVector(p, target); err != nil {
				return err
			}
		}
		plan.combine = CombineAverage
		scorers, _, err := e.referenceSide(ctx, plan, hs)
		if err != nil {
			return err
		}
		out = e.explain(plan.q, scorers, phis, target, candidateName, topN)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Trace = res.Trace
	return out, nil
}

// explain is target's audit record from its Φ under every path and the
// reduced reference side. The scores are Execute's arithmetic, bit for bit:
// each path's Ω from its scorer, the paths combined by queryScorers.score.
// The contributions are their per-coordinate display, whose Ω parts sum to Ω
// up to rounding.
func (e *Engine) explain(q *oql.Query, scorers *queryScorers, phis []sparse.Vector, target hin.VertexID, name string, topN int) *Explanation {
	out := &Explanation{Vertex: target, Name: name}
	out.Score, _ = scorers.score(phis)
	for m, f := range q.Features {
		phi, s := phis[m], scorers.perPath[m].s
		pe := PathExplanation{
			Path:       strings.Join(f.Segments, "."),
			Weight:     f.Weight,
			Score:      scorers.perPath[m].score(phi),
			Visibility: phi.Norm2Sq(),
		}
		for k := range phi.Idx { // none at zero visibility
			u := hin.VertexID(phi.Idx[k])
			c := Contribution{
				Neighbor:       u,
				Name:           e.g.Name(u),
				CandidateCount: phi.Val[k],
				CandidateShare: phi.Val[k] * phi.Val[k] / pe.Visibility,
				ReferenceCount: s.At(phi.Idx[k]),
			}
			c.Omega = c.CandidateCount * c.ReferenceCount / pe.Visibility
			pe.Contributions = append(pe.Contributions, c)
		}
		sort.Slice(pe.Contributions, func(a, b int) bool {
			ca, cb := pe.Contributions[a], pe.Contributions[b]
			if ca.CandidateShare != cb.CandidateShare {
				return ca.CandidateShare > cb.CandidateShare
			}
			return ca.Neighbor < cb.Neighbor
		})
		if topN > 0 && len(pe.Contributions) > topN {
			pe.Contributions = pe.Contributions[:topN]
		}
		out.Paths = append(out.Paths, pe)
	}
	return out
}

// Format renders the explanation for terminal display.
func (x *Explanation) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — combined Ω = %.4f (smaller = more outlying)\n", x.Name, x.Score)
	for _, p := range x.Paths {
		fmt.Fprintf(&sb, "  path %s (weight %g): Ω = %.4f, visibility = %.0f\n",
			p.Path, p.Weight, p.Score, p.Visibility)
		if len(p.Contributions) == 0 {
			sb.WriteString("    (no connectivity under this path — candidate skipped)\n")
			continue
		}
		fmt.Fprintf(&sb, "    %-28s %12s %10s %12s %10s\n",
			"neighbor", "cand count", "share", "ref count", "Ω part")
		for _, c := range p.Contributions {
			fmt.Fprintf(&sb, "    %-28s %12.0f %9.1f%% %12.0f %10.4f\n",
				c.Name, c.CandidateCount, 100*c.CandidateShare, c.ReferenceCount, c.Omega)
		}
	}
	if x.Trace != nil {
		for _, line := range strings.Split(strings.TrimRight(x.Trace.Format(), "\n"), "\n") {
			fmt.Fprintf(&sb, "  %s\n", line)
		}
	}
	return sb.String()
}

func containsVertex(sorted []hin.VertexID, v hin.VertexID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	return i < len(sorted) && sorted[i] == v
}
