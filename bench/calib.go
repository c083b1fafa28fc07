package main

import (
	"math"
	"time"
)

// Timed reps are normalized for host interference. On a shared host a
// neighbour can slow the simulator by up to 80 % for seconds to minutes at
// a time, and no statistic of raw wall-clock times stays put between runs.
// Each rep is therefore bracketed by two runs of calibrate, a fixed kernel
// with the simulator's instruction mix, and its set-up and simulated phase
// are reported as calRefS × time ÷ (mean calibration time): seconds on a
// host where the kernel takes calRefS. The interference changes within
// seconds, so the kernel runs on both sides of the rep: over ten 15 s
// rack-capped runs the spread of the median rep time was 7.5 % raw, 4.3 %
// normalized by a run before the rep alone, 2.7 % by the mean of one before
// and one after, and 2.3 % with the kernel doubled to its present length
// (README.md, "Noise"). The raw times are still printed.

// calRefS fixes the unit of the normalized times: twice the 2.3–2.5 ms
// that half this kernel took on the 2-vCPU VM the benchmark was sized on
// (Intel Xeon at 2.0 GHz) in quiet spells.
const calRefS = 5e-3

var calibSink float64

type calibNode struct {
	next *calibNode
	v    [6]float64
}

// calibrate runs the calibration kernel — chained 4×4 matrix products like
// the thermal ladder's, an exponential per step like the leakage model's,
// and small linked allocations like the kernels' bookkeeping — and returns
// its wall time. It is benchmark code only, so a change to the simulator
// cannot move it.
func calibrate() time.Duration {
	t0 := time.Now()
	var a, b, c [16]float64
	for i := range a {
		a[i] = 0.9 + 0.001*float64(i)
		b[i] = 0.1 * float64(i%5)
	}
	s := 0.0
	var nodes []*calibNode
	for it := 0; it < 40000; it++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				x := 0.0
				for k := 0; k < 4; k++ {
					x += a[i*4+k] * b[k*4+j]
				}
				c[i*4+j] = x * 0.25
			}
		}
		a, c = c, a
		s += math.Exp(-a[it%16]) + c[0]
		n := &calibNode{}
		n.v[it%6] = s
		if len(nodes) > 0 {
			n.next = nodes[len(nodes)-1]
		}
		nodes = append(nodes, n)
		if len(nodes) > 256 {
			nodes = nodes[:0]
		}
	}
	calibSink += s
	return time.Since(t0)
}
