// Package stats provides the statistics the leakage-model fit reports:
// an online mean and the coefficient of determination R².
package stats

import "math"

// Online accumulates a count and a running mean incrementally (Welford's
// update). The zero value is ready to use.
type Online struct {
	n    int
	mean float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 if empty).
func (o *Online) Mean() float64 { return o.mean }

// RSquared computes the coefficient of determination of predictions against
// truth. 1 is a perfect fit; it can go negative for fits worse than the mean.
func RSquared(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var mean float64
	for _, y := range truth {
		mean += y
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i := range truth {
		r := truth[i] - pred[i]
		d := truth[i] - mean
		ssRes += r * r
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}
