package core

import (
	"math"
	"testing"

	"netout/internal/sparse"
)

// venueVec builds a neighbor vector over the four venues of Table 1,
// coordinates 0..3 = VLDB, KDD, STOC, SIGGRAPH.
func venueVec(vldb, kdd, stoc, siggraph float64) sparse.Vector {
	return sparse.FromMap(map[int32]float64{0: vldb, 1: kdd, 2: stoc, 3: siggraph})
}

// table1 returns the candidate vectors of Table 1 (in order Sarah, Rob,
// Lucy, Joe, Emma) and the 100-author reference set.
func table1() (cands []sparse.Vector, refs []sparse.Vector, names []string) {
	cands = []sparse.Vector{
		venueVec(10, 10, 1, 1), // Sarah
		venueVec(0, 1, 20, 20), // Rob
		venueVec(0, 5, 10, 10), // Lucy
		venueVec(0, 0, 0, 2),   // Joe
		venueVec(0, 0, 0, 30),  // Emma
	}
	refs = make([]sparse.Vector, 100)
	for i := range refs {
		refs[i] = venueVec(10, 10, 1, 1)
	}
	names = []string{"Sarah", "Rob", "Lucy", "Joe", "Emma"}
	return
}

// TestTable2Scores reproduces Table 2 of the paper exactly (values are the
// paper's, rounded to two decimals).
func TestTable2Scores(t *testing.T) {
	cands, refs, names := table1()
	want := map[Measure][]float64{
		MeasureNetOut:  {100, 6.24, 31.11, 50, 3.33},
		MeasurePathSim: {100, 9.97, 32.79, 1.94, 5.44},
		MeasureCosSim:  {100, 12.43, 32.83, 7.04, 7.04},
	}
	for m, exp := range want {
		got := ScoreVectors(m, cands, refs)
		for i := range exp {
			if math.Abs(got[i]-exp[i]) > 0.005 {
				t.Errorf("%s(%s) = %.4f, want %.2f", m, names[i], got[i], exp[i])
			}
		}
	}
}

// TestTable2Qualitative checks the measure-behaviour claims of Section 5.2:
// NetOut does not flag low-visibility Joe, while PathSim and CosSim rank
// him among the strongest outliers; Emma (high visibility, unusual venues)
// is flagged by NetOut.
func TestTable2Qualitative(t *testing.T) {
	cands, refs, _ := table1()
	netout := ScoreVectors(MeasureNetOut, cands, refs)
	pathsim := ScoreVectors(MeasurePathSim, cands, refs)
	cossim := ScoreVectors(MeasureCosSim, cands, refs)

	const (
		sarah = 0
		rob   = 1
		lucy  = 2
		joe   = 3
		emma  = 4
	)
	// NetOut: Emma < Rob < Lucy < Joe < Sarah.
	if !(netout[emma] < netout[rob] && netout[rob] < netout[lucy] &&
		netout[lucy] < netout[joe] && netout[joe] < netout[sarah]) {
		t.Errorf("NetOut ordering wrong: %v", netout)
	}
	// PathSim ranks Joe as the single strongest outlier.
	for i, s := range pathsim {
		if i != joe && s <= pathsim[joe] {
			t.Errorf("PathSim should rank Joe lowest, got %v", pathsim)
		}
	}
	// CosSim cannot distinguish Joe from Emma (same direction).
	if math.Abs(cossim[joe]-cossim[emma]) > 1e-9 {
		t.Errorf("CosSim should tie Joe and Emma: %v", cossim)
	}
}

// TestFigure2NormalizedConnectivity reproduces the Figure 2 example:
// σ(Jim, Mary) = 0.5 and σ(Mary, Jim) = 2.
func TestFigure2NormalizedConnectivity(t *testing.T) {
	jim := sparse.FromMap(map[int32]float64{0: 4, 1: 2, 2: 6})
	mary := sparse.FromMap(map[int32]float64{0: 2, 1: 1, 2: 3})
	if k := jim.Dot(mary); k != 28 {
		t.Fatalf("connectivity = %g, want 28", k)
	}
	if s := NormalizedConnectivity(jim, mary); s != 0.5 {
		t.Fatalf("σ(Jim,Mary) = %g, want 0.5", s)
	}
	if s := NormalizedConnectivity(mary, jim); s != 2 {
		t.Fatalf("σ(Mary,Jim) = %g, want 2", s)
	}
	// Self normalized connectivity is always 1.
	if s := NormalizedConnectivity(jim, jim); s != 1 {
		t.Fatalf("σ(Jim,Jim) = %g, want 1", s)
	}
}

func TestPairwiseMeasures(t *testing.T) {
	a := sparse.FromMap(map[int32]float64{0: 3})
	b := sparse.FromMap(map[int32]float64{0: 4})
	if got := PathSim(a, b); math.Abs(got-2*12.0/25) > 1e-12 {
		t.Errorf("PathSim = %g", got)
	}
	if got := CosSim(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("CosSim = %g, want 1", got)
	}
	var zero sparse.Vector
	if !math.IsNaN(NormalizedConnectivity(zero, b)) {
		t.Error("σ with zero visibility should be NaN")
	}
	if !math.IsNaN(PathSim(zero, zero)) {
		t.Error("PathSim of two zero vectors should be NaN")
	}
	if !math.IsNaN(CosSim(zero, b)) {
		t.Error("CosSim with a zero vector should be NaN")
	}
	if PathSim(zero, b) != 0 {
		t.Error("PathSim with one zero vector should be 0")
	}
}

func TestScoreVectorsZeroVisibility(t *testing.T) {
	refs := []sparse.Vector{sparse.FromMap(map[int32]float64{0: 1})}
	cands := []sparse.Vector{{}, sparse.FromMap(map[int32]float64{0: 2})}
	for _, m := range []Measure{MeasureNetOut, MeasurePathSim, MeasureCosSim} {
		got := ScoreVectors(m, cands, refs)
		if !math.IsNaN(got[0]) {
			t.Errorf("%s: zero-visibility candidate should be NaN, got %g", m, got[0])
		}
		if math.IsNaN(got[1]) {
			t.Errorf("%s: normal candidate should be finite", m)
		}
	}
}

// Each measure's fast path (for NetOut, Equation (1)) must agree with the
// naive pairwise definition Ω(vi) = Σ_j σ(vi, vj).
func TestNetOutEquationOneMatchesNaive(t *testing.T) {
	cands, refs, _ := table1()
	for _, tc := range []struct {
		m    Measure
		pair func(a, b sparse.Vector) float64
	}{{MeasureNetOut, NormalizedConnectivity}, {MeasurePathSim, PathSim}, {MeasureCosSim, CosSim}} {
		fast := ScoreVectors(tc.m, cands, refs)
		for i, c := range cands {
			var naive float64
			for _, r := range refs {
				naive += tc.pair(c, r)
			}
			if math.Abs(fast[i]-naive) > 1e-9 {
				t.Errorf("%v candidate %d: fast %g vs naive %g", tc.m, i, fast[i], naive)
			}
		}
	}
}

var scoreSink float64

// The separable measures score a candidate without allocating, on both of
// DotNorm's bodies: an S dense enough for a directory, and one too sparse for
// it. Allocation counts are deterministic, so this is scoring's allocation
// gate.
func TestScoreAllocatesNothing(t *testing.T) {
	for _, gap := range []int32{1, 200} { // a directory, Dot
		refs := make([]sparse.Vector, 8)
		for j := range refs {
			m := map[int32]float64{}
			for k := int32(0); k < 64; k++ {
				if (k+int32(j))%3 != 0 {
					m[k*gap] = float64(1 + (k+int32(j))%5)
				}
			}
			refs[j] = sparse.FromMap(m)
		}
		for _, m := range []Measure{MeasureNetOut, MeasureCosSim} {
			rs := newRefScorer(m, refs)
			if dir := rs.dir.Bytes() > 0; dir != (gap == 1) {
				t.Fatalf("%v, coordinates %d apart: a directory of %d bytes", m, gap, rs.dir.Bytes())
			}
			if n := testing.AllocsPerRun(100, func() { scoreSink = rs.score(refs[3]) }); n != 0 {
				t.Errorf("%v, coordinates %d apart: %.0f allocations per candidate", m, gap, n)
			}
		}
	}
}

func TestParseMeasure(t *testing.T) {
	for name, want := range map[string]Measure{
		"netout": MeasureNetOut, "NetOut": MeasureNetOut,
		"pathsim": MeasurePathSim, "PathSim": MeasurePathSim,
		"cossim": MeasureCosSim, "cosine": MeasureCosSim,
	} {
		got, err := ParseMeasure(name)
		if err != nil || got != want {
			t.Errorf("ParseMeasure(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMeasure("lof"); err == nil {
		t.Error("unknown measure should fail")
	}
	if MeasureNetOut.String() != "NetOut" || Measure(9).String() == "" {
		t.Error("Measure.String misbehaves")
	}
}
