package lof

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netout/internal/sparse"
)

func pt(coords ...float64) sparse.Vector {
	m := make(map[int32]float64, len(coords))
	for i, c := range coords {
		m[int32(i)] = c
	}
	return sparse.FromMap(m)
}

func TestEuclidean(t *testing.T) {
	a, b := pt(0, 3), pt(4, 0)
	if d := Euclidean(a, b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("Euclidean = %g, want 5", d)
	}
	if d := Euclidean(a, a); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
	if d := Euclidean(sparse.Vector{}, pt(3, 4)); math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance from origin = %g", d)
	}
}

func TestCosine(t *testing.T) {
	a, b := pt(1, 0), pt(0, 1)
	if d := Cosine(a, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("orthogonal cosine distance = %g, want 1", d)
	}
	if d := Cosine(a, pt(5, 0)); math.Abs(d) > 1e-12 {
		t.Fatalf("parallel cosine distance = %g, want 0", d)
	}
	if d := Cosine(sparse.Vector{}, a); d != 1 {
		t.Fatalf("zero-vector convention broken: %g", d)
	}
}

// A tight cluster plus one distant point: the distant point must get the
// highest LOF score, well above 1; cluster members stay near 1.
func TestScoresClusterPlusOutlier(t *testing.T) {
	var points []sparse.Vector
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		points = append(points, pt(r.Float64(), r.Float64()))
	}
	points = append(points, pt(50, 50))
	scores, err := Scores(points, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	outlier := len(points) - 1
	for i, s := range scores {
		if i == outlier {
			continue
		}
		if s >= scores[outlier] {
			t.Fatalf("cluster point %d score %.3f >= outlier score %.3f", i, s, scores[outlier])
		}
		if s > 2 {
			t.Errorf("cluster point %d suspiciously high LOF %.3f", i, s)
		}
	}
	if scores[outlier] < 3 {
		t.Fatalf("outlier LOF = %.3f, want well above cluster", scores[outlier])
	}
	if top := argmax(scores); top != outlier {
		t.Fatalf("argmax = %d, want %d", top, outlier)
	}
}

// Uniform grids have LOF ≈ 1 everywhere (the measure's defining property).
func TestScoresUniformNearOne(t *testing.T) {
	var points []sparse.Vector
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			points = append(points, pt(float64(i), float64(j)))
		}
	}
	scores, err := Scores(points, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if s < 0.7 || s > 1.6 {
			t.Errorf("grid point %d LOF = %.3f, want ≈1", i, s)
		}
	}
}

// Duplicate points (zero distances) must not produce NaN.
func TestScoresDuplicates(t *testing.T) {
	points := []sparse.Vector{pt(1, 1), pt(1, 1), pt(1, 1), pt(9, 9)}
	scores, err := Scores(points, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if math.IsNaN(s) {
			t.Fatalf("score %d is NaN", i)
		}
	}
	if !(scores[3] > scores[0]) {
		t.Fatalf("distant point should outscore duplicates: %v", scores)
	}
}

func TestScoresErrors(t *testing.T) {
	points := []sparse.Vector{pt(0), pt(1)}
	if _, err := Scores(points, Options{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := Scores(points, Options{K: 2}); err == nil {
		t.Error("K >= n should fail")
	}
	if _, err := KNNScores(points, 0, nil); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := KNNScores(points, 5, nil); err == nil {
		t.Error("k >= n should fail")
	}
}

func TestKNNScores(t *testing.T) {
	points := []sparse.Vector{pt(0, 0), pt(1, 0), pt(0, 1), pt(10, 10)}
	scores, err := KNNScores(points, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if top := argmax(scores); top != 3 {
		t.Fatalf("kNN top outlier = %d, want 3", top)
	}
	// k-th neighbor distance of the origin: second nearest is (0,1) or (1,0).
	if math.Abs(scores[0]-1) > 1e-12 {
		t.Fatalf("score[0] = %g, want 1", scores[0])
	}
}

func TestCosineLOF(t *testing.T) {
	// Directionally clustered points plus one orthogonal outlier.
	points := []sparse.Vector{
		pt(1, 0.1), pt(2, 0.1), pt(3, 0.2), pt(4, 0.3), pt(5, 0.2),
		pt(0.05, 4),
	}
	scores, err := Scores(points, Options{K: 2, Distance: Cosine})
	if err != nil {
		t.Fatal(err)
	}
	if top := argmax(scores); top != 5 {
		t.Fatalf("cosine LOF top = %d (scores %v), want 5", top, scores)
	}
}

// argmax returns the index of the first highest score: the most outlying
// point under LOF and kNN.
func argmax(scores []float64) int {
	top := 0
	for i, s := range scores {
		if s > scores[top] {
			top = i
		}
	}
	return top
}

func TestQuickDistanceAxioms(t *testing.T) {
	randVec := func(r *rand.Rand) sparse.Vector {
		m := make(map[int32]float64)
		for i := 0; i < r.Intn(6); i++ {
			m[r.Int31n(8)] = float64(r.Intn(9) - 4)
		}
		return sparse.FromMap(m)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVec(r), randVec(r), randVec(r)
		// Symmetry and identity.
		if math.Abs(Euclidean(a, b)-Euclidean(b, a)) > 1e-9 {
			return false
		}
		if Euclidean(a, a) != 0 {
			return false
		}
		// Triangle inequality.
		if Euclidean(a, c) > Euclidean(a, b)+Euclidean(b, c)+1e-9 {
			return false
		}
		// Cosine symmetry and range.
		cd := Cosine(a, b)
		return math.Abs(cd-Cosine(b, a)) < 1e-9 && cd > -1e-9 && cd < 2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// LOF is invariant under global scaling of the point cloud (with Euclidean
// distance): distances scale uniformly so all ratios are preserved.
func TestQuickLOFScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(8)
		points := make([]sparse.Vector, n)
		scaled := make([]sparse.Vector, n)
		for i := range points {
			m := map[int32]float64{0: r.Float64() * 10, 1: r.Float64() * 10}
			points[i] = sparse.FromMap(m)
			scaled[i] = points[i].Scale(3)
		}
		s1, err1 := Scores(points, Options{K: 3})
		s2, err2 := Scores(scaled, Options{K: 3})
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range s1 {
			if math.Abs(s1[i]-s2[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
