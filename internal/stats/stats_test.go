package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestOnlineAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		o.Add(xs[i])
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if math.Abs(o.Mean()-mean) > 1e-9 || o.N() != len(xs) {
		t.Fatalf("mean %g over %d vs %g over %d", o.Mean(), o.N(), mean, len(xs))
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.N() != 0 {
		t.Fatal("zero value not neutral")
	}
	o.Add(5)
	if o.Mean() != 5 || o.N() != 1 {
		t.Fatalf("single obs: %+v", o)
	}
}

func TestRSquared(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	if got := RSquared(truth, truth); got != 1 {
		t.Fatalf("perfect R² = %g", got)
	}
	// Predicting the mean gives R² = 0.
	meanPred := []float64{2.5, 2.5, 2.5, 2.5}
	if got := RSquared(meanPred, truth); math.Abs(got) > 1e-12 {
		t.Fatalf("mean R² = %g", got)
	}
	// Constant truth with perfect prediction.
	if got := RSquared([]float64{2, 2}, []float64{2, 2}); got != 1 {
		t.Fatalf("constant R² = %g", got)
	}
}
