package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Expm writes the matrix exponential exp(A) of the n×n row-major matrix a
// into dst (also n×n row-major), using scaling-and-squaring with a [6/6]
// Padé approximant (Moler & Van Loan, method 3). a is not modified.
//
// The intended use is the exact discrete propagator of a linear ODE
// dT/dt = A·T + u: exp(A·h) advances the homogeneous part by h exactly, for
// any h, which is what lets the thermal network replace many RK4 substeps
// with one cached matvec.
func (w *ExpmWorkspace) Expm(dst, a []float64, n int) error {
	if n == 0 {
		return nil
	}
	if len(a) != n*n || len(dst) != n*n {
		return fmt.Errorf("mathx: expm of order %d needs %d entries, got %d in and %d out", n, n*n, len(a), len(dst))
	}
	in, num, den, pow, tmp := w.size(n)
	for i, row := range in {
		copy(row, a[i*n:(i+1)*n])
	}
	e, err := expm(in, num, den, pow, tmp)
	if err != nil {
		return err
	}
	for i, row := range e {
		copy(dst[i*n:(i+1)*n], row)
	}
	return nil
}

// expmRows runs ExpmWorkspace.Expm on a matrix given as rows, the shape
// the cases below are written in, through a fresh workspace.
func expmRows(a [][]float64) ([][]float64, error) {
	n := len(a)
	var flat []float64
	for _, row := range a {
		flat = append(flat, row...)
	}
	dst := make([]float64, n*n)
	var w ExpmWorkspace
	if err := w.Expm(dst, flat, n); err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = dst[i*n : (i+1)*n]
	}
	return out, nil
}

func TestExpmScalar(t *testing.T) {
	for _, x := range []float64{-3, -0.5, 0, 0.1, 2.7} {
		e, err := expmRows([][]float64{{x}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e[0][0], math.Exp(x); math.Abs(got-want) > 1e-12*math.Max(1, want) {
			t.Fatalf("expm(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestExpmZeroIsIdentity(t *testing.T) {
	e, err := expmRows([][]float64{{0, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 0}, {0, 1}}
	for i := range e {
		for j := range e[i] {
			if math.Abs(e[i][j]-want[i][j]) > 1e-15 {
				t.Fatalf("expm(0) = %v, want identity", e)
			}
		}
	}
}

func TestExpmRotation(t *testing.T) {
	// exp([[0,-θ],[θ,0]]) is the rotation matrix by θ.
	theta := 1.2
	e, err := expmRows([][]float64{{0, -theta}, {theta, 0}})
	if err != nil {
		t.Fatal(err)
	}
	c, s := math.Cos(theta), math.Sin(theta)
	want := [][]float64{{c, -s}, {s, c}}
	for i := range e {
		for j := range e[i] {
			if math.Abs(e[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("rotation expm mismatch at (%d,%d): %g vs %g", i, j, e[i][j], want[i][j])
			}
		}
	}
}

// TestExpmVsTaylor checks random matrices against a long, scaled Taylor
// series evaluated independently.
func TestExpmVsTaylor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = 4 * (rng.Float64() - 0.5)
			}
		}
		got, err := expmRows(a)
		if err != nil {
			t.Fatal(err)
		}
		want := taylorExpm(a, 60)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(got[i][j]-want[i][j]) > 1e-9*math.Max(1, math.Abs(want[i][j])) {
					t.Fatalf("trial %d: expm mismatch at (%d,%d): %g vs %g", trial, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// taylorExpm evaluates exp(A) by squaring a truncated Taylor series of the
// halved matrix enough times — slow but independent of the Padé code path.
func taylorExpm(a [][]float64, terms int) [][]float64 {
	n := len(a)
	const halvings = 20
	as := make([][]float64, n)
	sum := make([][]float64, n)
	term := make([][]float64, n)
	for i := range a {
		as[i] = make([]float64, n)
		for j := range a[i] {
			as[i][j] = a[i][j] / (1 << halvings)
		}
		sum[i] = make([]float64, n)
		term[i] = make([]float64, n)
		sum[i][i], term[i][i] = 1, 1
	}
	mul := func(x, y [][]float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, n)
			for k := 0; k < n; k++ {
				for j := 0; j < n; j++ {
					out[i][j] += x[i][k] * y[k][j]
				}
			}
		}
		return out
	}
	for k := 1; k <= terms; k++ {
		term = mul(term, as)
		for i := range term {
			for j := range term[i] {
				term[i][j] /= float64(k)
				sum[i][j] += term[i][j]
			}
		}
	}
	for s := 0; s < halvings; s++ {
		sum = mul(sum, sum)
	}
	return sum
}

func TestExpmIntegralScalar(t *testing.T) {
	// For dT/dt = -λT + u: ad = e^{-λh}, phi = (1 - e^{-λh})/λ.
	lambda, h := 0.7, 2.5
	ad, phi := make([]float64, 1), make([]float64, 1)
	var w ExpmWorkspace
	if err := w.ExpmIntegral([]float64{-lambda}, 1, h, ad, phi); err != nil {
		t.Fatal(err)
	}
	if want := math.Exp(-lambda * h); math.Abs(ad[0]-want) > 1e-12 {
		t.Fatalf("ad = %g, want %g", ad[0], want)
	}
	if want := (1 - math.Exp(-lambda*h)) / lambda; math.Abs(phi[0]-want) > 1e-12 {
		t.Fatalf("phi = %g, want %g", phi[0], want)
	}
}

// TestExpmIntegralMatchesFineRK4 drives a random stable affine system one
// exact step and compares against many fine RK4 steps.
func TestExpmIntegralMatchesFineRK4(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var w ExpmWorkspace // one workspace across orders: size changes re-slice it
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(5)
		a := make([][]float64, n)
		flat := make([]float64, 0, n*n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = 0.4 * (rng.Float64() - 0.5)
			}
			a[i][i] -= 1.0 // diagonally dominant, stable
			flat = append(flat, a[i]...)
		}
		u := make([]float64, n)
		y := make([]float64, n)
		for i := range u {
			u[i] = 2 * (rng.Float64() - 0.5)
			y[i] = 10 * rng.Float64()
		}
		h := 0.5 + 2*rng.Float64()

		ad, phi := make([]float64, n*n), make([]float64, n*n)
		if err := w.ExpmIntegral(flat, n, h, ad, phi); err != nil {
			t.Fatal(err)
		}
		exact := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				exact[i] += ad[i*n+j]*y[j] + phi[i*n+j]*u[j]
			}
		}

		deriv := func(_ float64, yy []float64, d []float64) {
			for i := 0; i < n; i++ {
				d[i] = u[i]
				for j := 0; j < n; j++ {
					d[i] += a[i][j] * yy[j]
				}
			}
		}
		ref := append([]float64(nil), y...)
		const sub = 2000
		scratch := NewScratch(n)
		for k := 0; k < sub; k++ {
			RK4Step(deriv, float64(k)*h/sub, ref, h/sub, scratch)
		}
		for i := 0; i < n; i++ {
			if math.Abs(exact[i]-ref[i]) > 1e-8 {
				t.Fatalf("trial %d node %d: exact %g vs fine RK4 %g", trial, i, exact[i], ref[i])
			}
		}
	}
}

func TestExpmBadInput(t *testing.T) {
	if _, err := expmRows([][]float64{{1, 2}}); err == nil {
		t.Fatal("expected error for non-square input")
	}
	if _, err := expmRows([][]float64{{math.NaN()}}); err == nil {
		t.Fatal("expected error for NaN input")
	}
	var w ExpmWorkspace
	ad, phi := make([]float64, 1), make([]float64, 1)
	if err := w.ExpmIntegral([]float64{1}, 1, 0, ad, phi); err == nil {
		t.Fatal("expected error for zero step")
	}
	if err := w.ExpmIntegral([]float64{1, 2}, 1, 1, ad, phi); err == nil {
		t.Fatal("expected error for non-square input")
	}
	if err := w.ExpmIntegral([]float64{1}, 1, 1, ad, phi[:0]); err == nil {
		t.Fatal("expected error for a short output")
	}
}

// TestExpmIntegralWorkspaceReuse: a warm workspace allocates nothing, and
// its results do not depend on what it computed before — an order change
// in between included.
func TestExpmIntegralWorkspaceReuse(t *testing.T) {
	a := []float64{-0.9, 0.3, 0, 0.2, -1.4, 0.5, 0.1, 0, -0.7}
	want, phiWant := make([]float64, 9), make([]float64, 9)
	var fresh ExpmWorkspace
	if err := fresh.ExpmIntegral(a, 3, 1.5, want, phiWant); err != nil {
		t.Fatal(err)
	}
	var w ExpmWorkspace
	ad, phi := make([]float64, 9), make([]float64, 9)
	other := make([]float64, 4)
	if err := w.ExpmIntegral([]float64{-2, 1, 1, -3}, 2, 0.5, other, make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.ExpmIntegral(a, 3, 1.5, ad, phi); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(ad[i]) != math.Float64bits(want[i]) || math.Float64bits(phi[i]) != math.Float64bits(phiWant[i]) {
			t.Fatalf("entry %d: reused workspace gave (%g, %g), fresh (%g, %g)", i, ad[i], phi[i], want[i], phiWant[i])
		}
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := w.ExpmIntegral(a, 3, 1.5, ad, phi); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm ExpmIntegral allocated %.1f times per call", avg)
	}
}

func TestSolveLinearInPlaceMatchesSolveLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		a := make([][]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = 2 * (rng.Float64() - 0.5)
			}
			a[i][i] += float64(n) // well conditioned
			b[i] = rng.Float64()
		}
		want, err := SolveLinear(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// In-place variant destroys its inputs; give it copies.
		ac := make([][]float64, n)
		for i := range a {
			ac[i] = append([]float64(nil), a[i]...)
		}
		bc := append([]float64(nil), b...)
		if err := SolveLinearInPlace(ac, bc); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(want[i]-bc[i]) > 1e-12 {
				t.Fatalf("trial %d: in-place solution differs at %d: %g vs %g", trial, i, bc[i], want[i])
			}
		}
	}
}

func TestSolveLinearInPlaceSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	b := []float64{1, 2}
	if err := SolveLinearInPlace(a, b); err == nil {
		t.Fatal("expected singular matrix error")
	}
}
