// Package mathx provides the numerical routines the reproduction needs:
// dense linear solves, Levenberg–Marquardt nonlinear least squares, the
// matrix exponential, fixed-point iteration and RK4 ODE stepping.
//
// Everything is small, dense and allocation-light; the problem sizes in this
// project are a handful of parameters and a few thousand samples.
package mathx

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular matrix")

// SolveLinear solves the n×n system a·x = b using Gaussian elimination
// with partial pivoting. a and b are not modified; the solution is returned
// as a fresh slice. It is the copying wrapper around SolveLinearInPlace.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("mathx: bad system shape %dx? vs b=%d", n, len(b))
	}
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("mathx: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)
	if err := SolveLinearInPlace(m, x); err != nil {
		return nil, err
	}
	return x, nil
}

// Dot returns the inner product of two equally sized vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
