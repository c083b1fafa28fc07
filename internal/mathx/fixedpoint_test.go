package mathx

import (
	"math"
	"testing"
)

func TestFixedPoint(t *testing.T) {
	// x = cos(x) has fixed point ~0.739085.
	x, err := FixedPoint(math.Cos, 0, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-0.7390851332151607) > 1e-9 {
		t.Fatalf("fixed point = %g", x)
	}
}

func TestFixedPointDiverges(t *testing.T) {
	_, err := FixedPoint(func(x float64) float64 { return 2*x + 1 }, 1, 1e-9, 50)
	if err == nil {
		t.Fatal("divergent map should report non-convergence")
	}
}
