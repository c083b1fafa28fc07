package mathx

import "fmt"

// FixedPoint iterates x ← f(x) until |Δx| < tol, returning the fixed point.
// It gives up after maxIter iterations and reports the last value with an
// error, which matters for detecting thermal runaway in steady-state solves.
func FixedPoint(f func(float64) float64, x0, tol float64, maxIter int) (float64, error) {
	x := x0
	for i := 0; i < maxIter; i++ {
		next := f(x)
		if diff := next - x; diff < tol && diff > -tol {
			return next, nil
		}
		x = next
	}
	return x, fmt.Errorf("mathx: fixed point did not converge after %d iterations (last=%g)", maxIter, x)
}
