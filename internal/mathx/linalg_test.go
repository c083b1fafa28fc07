package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveLinearIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, -7}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != -7 {
		t.Fatalf("identity solve = %v", x)
	}
}

func TestSolveLinearKnown(t *testing.T) {
	// 2x + y = 5; x - y = 1  => x=2, y=1
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("solve = %v, want [2 1]", x)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal requires a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("solve = %v, want [3 2]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveLinearShapeErrors(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("empty system should error")
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square system should error")
	}
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched b should error")
	}
}

func TestSolveLinearDoesNotMutateInputs(t *testing.T) {
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	if _, err := SolveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != -1 || b[0] != 5 {
		t.Fatal("inputs were mutated")
	}
}

func TestSolveLinearRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		a := make([][]float64, n)
		xTrue := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
			a[i][i] += float64(n) // diagonally dominant => nonsingular
			xTrue[i] = rng.NormFloat64() * 10
		}
		b := make([]float64, n)
		for i := range b {
			for j := 0; j < n; j++ {
				b[i] += a[i][j] * xTrue[j]
			}
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d]=%g want %g", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
}

func TestDotSymmetry(t *testing.T) {
	f := func(a, b [4]float64) bool {
		for i := range a {
			// Avoid overflow to ±Inf, where Inf-Inf sums become NaN and
			// NaN != NaN would make even bitwise-identical results "differ".
			if math.Abs(a[i]) > 1e150 || math.Abs(b[i]) > 1e150 {
				return true
			}
		}
		return Dot(a[:], b[:]) == Dot(b[:], a[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
