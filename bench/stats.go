package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailSamples is how many samples must lie beyond a reported tail
// percentile.
const tailSamples = 10

// tailQuantile is the highest quantile of n samples with at least
// tailSamples beyond it (0.9 at 100 samples), and never below the median.
func tailQuantile(n int) float64 {
	return math.Max(0.5, 1-float64(tailSamples)/float64(n))
}

// metricDef describes one reported metric. Bound, for end-to-end metrics,
// is the share of the parent's median by which the metric may worsen
// before a change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// regressed reports whether cur is worse than base by more than the bound.
func (m metricDef) regressed(base, cur float64) bool {
	d := cur - base
	if m.Better == "higher" {
		d = -d
	}
	return d > m.Bound*math.Abs(base)
}

// setupBound is set-up's regression bound: a worsening of 10 % or 1 ms,
// whichever is larger, written as one share. Every workload sets up in
// at most 5.5 ms, so 1 ms is at least 18 % of each, and 18 % is never
// looser than the rule on any of them.
const setupBound = 0.18

// endToEnd are the end-to-end metrics compared between commits, with their
// regression bounds (BENCHMARK.json mirrors them). They come from untraced
// reps only.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: setupBound},
	{Name: "run_s_p50", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "sim_rate", Unit: "server-s/s", Better: "higher", Bound: 0.10},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// timedMetrics are everything the timed phase prints, in order: the
// compared metrics, the tail of the normalized rep time and its quantile,
// the sample count, and the raw calibration and rep times behind the
// normalization. The tail is not compared: its quantile follows the rep
// count, which follows the host.
var timedMetrics = []metricDef{
	endToEnd[0],
	endToEnd[1],
	{Name: "run_s_tail", Unit: "s", Better: "lower"},
	{Name: "run_s_tail_q", Unit: "quantile", Better: "higher"},
	endToEnd[2],
	endToEnd[3],
	{Name: "reps", Unit: "count", Better: "higher"},
	{Name: "cal_s", Unit: "s", Better: "lower"},
	{Name: "wall_run_s_p50", Unit: "s", Better: "lower"},
}

// checks are the correctness metrics every run prints. They read zero, or
// close to it, on a healthy run, so instead of being compared they fail
// the rep that breaks them (energy_rel_err, fail_frac) or report a
// simulator finding (placement_flips, see alignReference).
var checks = []metricDef{
	{Name: "energy_rel_err", Unit: "ratio", Better: "lower"},
	{Name: "placement_flips", Unit: "count", Better: "lower"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
}
