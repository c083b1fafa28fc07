package mathx

import (
	"fmt"
	"math"
)

// ExpmWorkspace is the reusable scratch of ExpmIntegral. Its
// buffers are sized on first use and kept while the order stays the same,
// so repeated exponentials of one size allocate nothing. The zero value is
// ready to use; a workspace must not be shared between goroutines.
type ExpmWorkspace struct {
	n    int         // order of the buffered matrices
	back []float64   // backing store of five n×n buffers
	rows [][]float64 // their row views, re-sliced at every call
}

// size re-slices the row views over the backing store for order n,
// allocating only when the order changes, and returns the five buffers:
// a holds the (scaled) input, num and den the Padé sums, pow the running
// power and tmp the product scratch. Every call re-slices because the
// elimination permutes the row views of den and num.
func (w *ExpmWorkspace) size(n int) (a, num, den, pow, tmp [][]float64) {
	if w.n != n {
		w.n = n
		w.back = make([]float64, 5*n*n)
		w.rows = make([][]float64, 5*n)
	}
	for i := range w.rows {
		w.rows[i] = w.back[i*n : (i+1)*n : (i+1)*n]
	}
	r := w.rows
	return r[:n], r[n : 2*n], r[2*n : 3*n], r[3*n : 4*n], r[4*n:]
}

// ExpmIntegral writes the exact discretization pair of the linear system
// dT/dt = A·T + u over a step h into ad and phi (n×n row-major, like a):
//
//	ad  = exp(A·h)
//	phi = ∫₀ʰ exp(A·s) ds
//
// so that T(t+h) = ad·T(t) + phi·u for u constant over the step. Both are
// read off one exponential of the augmented matrix [[A·h, h·I], [0, 0]]
// (Van Loan's block trick), which stays well defined even when A is
// singular, unlike the closed form A⁻¹(ad − I). a is not modified, and ad
// and phi are written only on success.
func (w *ExpmWorkspace) ExpmIntegral(a []float64, n int, h float64, ad, phi []float64) error {
	if n == 0 {
		return nil
	}
	if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
		return fmt.Errorf("mathx: expm integral needs positive finite step, got %g", h)
	}
	if len(a) != n*n || len(ad) != n*n || len(phi) != n*n {
		return fmt.Errorf("mathx: expm integral of order %d needs %d entries, got %d in and %d/%d out", n, n*n, len(a), len(ad), len(phi))
	}
	in, num, den, pow, tmp := w.size(2 * n)
	for i, row := range in {
		for j := range row {
			row[j] = 0
		}
		if i < n {
			for j := 0; j < n; j++ {
				row[j] = a[i*n+j] * h
			}
			row[n+i] = h
		}
	}
	e, err := expm(in, num, den, pow, tmp)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		copy(ad[i*n:(i+1)*n], e[i][:n])
		copy(phi[i*n:(i+1)*n], e[i][n:])
	}
	return nil
}

// expm computes exp(a) in the workspace buffers of ExpmWorkspace.size,
// overwriting a with its scaled copy, and returns the result as row views
// into them.
func expm(a, num, den, pow, tmp [][]float64) ([][]float64, error) {
	n := len(a)
	for i := range a {
		for j := range a[i] {
			if math.IsNaN(a[i][j]) || math.IsInf(a[i][j], 0) {
				return nil, fmt.Errorf("mathx: expm input not finite at (%d,%d)", i, j)
			}
		}
	}

	// Scale A by 2^-s so its infinity norm is at most 1/2; the Padé
	// approximant is then accurate to near machine precision.
	norm := 0.0
	for i := range a {
		row := 0.0
		for j := range a[i] {
			row += math.Abs(a[i][j])
		}
		if row > norm {
			norm = row
		}
	}
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
	}
	scale := math.Ldexp(1, -s)
	for i := range a {
		for j := range a[i] {
			a[i][j] *= scale
		}
	}

	// [6/6] Padé: N = Σ c_k A^k, D = Σ (-1)^k c_k A^k with
	// c_0 = 1, c_k = c_{k-1}·(q-k+1)/(k·(2q-k+1)), q = 6.
	const q = 6
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			num[i][j], den[i][j], pow[i][j] = 0, 0, 0
		}
		num[i][i], den[i][i], pow[i][i] = 1, 1, 1
	}
	c := 1.0
	sign := 1.0
	for k := 1; k <= q; k++ {
		c *= float64(q-k+1) / float64(k*(2*q-k+1))
		sign = -sign
		matMulInto(tmp, pow, a)
		pow, tmp = tmp, pow
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				num[i][j] += c * pow[i][j]
				den[i][j] += sign * c * pow[i][j]
			}
		}
	}

	// Solve D·F = N in place: the solution lands in num's rows, and den's
	// rows are free to serve as squaring scratch afterwards.
	if err := solveRows(den, num); err != nil {
		return nil, fmt.Errorf("mathx: expm Padé denominator: %w", err)
	}
	f, spare := num, den
	for ; s > 0; s-- {
		matMulInto(spare, f, f)
		f, spare = spare, f
	}
	return f, nil
}

// SolveLinearInPlace solves a·x = b by Gaussian elimination with partial
// pivoting, destroying a and leaving the solution in b. It is the
// allocation-light core of SolveLinear for callers that own reusable
// buffers (the thermal steady-state solver calls it in a loop).
func SolveLinearInPlace(a [][]float64, b []float64) error {
	n := len(a)
	if n == 0 || len(b) != n {
		return fmt.Errorf("mathx: bad system shape %dx? vs b=%d", n, len(b))
	}
	for i := range a {
		if len(a[i]) != n {
			return fmt.Errorf("mathx: row %d has %d columns, want %d", i, len(a[i]), n)
		}
	}
	// Give the RHS rows independent storage so solveRows may pivot-swap row
	// headers without permuting b's layout underneath the caller.
	backing := append([]float64(nil), b...)
	rhs := make([][]float64, n)
	for i := range rhs {
		rhs[i] = backing[i : i+1 : i+1]
	}
	if err := solveRows(a, rhs); err != nil {
		return err
	}
	for i := range rhs {
		b[i] = rhs[i][0]
	}
	return nil
}

// solveRows is the one Gaussian-elimination core: it solves m·X = R in
// place with partial pivoting, where rhs[i] is the i-th row of R (any
// width). Both m and rhs are destroyed; the solution rows land in rhs.
func solveRows(m [][]float64, rhs [][]float64) error {
	n := len(m)
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-14 {
			return ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]

		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			for c := range rhs[r] {
				rhs[r][c] -= f * rhs[col][c]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		row := rhs[i]
		for c := range row {
			s := row[c]
			for k := i + 1; k < n; k++ {
				s -= m[i][k] * rhs[k][c]
			}
			row[c] = s / m[i][i]
		}
	}
	return nil
}

// matMulInto writes a·b into dst for square matrices of equal order; dst
// must not alias a or b. Zero entries of a are skipped: the skip is part of
// the operation order every cached propagator's bits depend on, and it
// keeps the zeros of a block-diagonal product exact.
func matMulInto(dst, a, b [][]float64) {
	for i, di := range dst {
		for j := range di {
			di[j] = 0
		}
		for k, aik := range a[i] {
			if aik == 0 {
				continue
			}
			row := b[k]
			for j := range di {
				di[j] += aik * row[j]
			}
		}
	}
}
