// Package par provides the bounded fan-outs of the repository: ForEach,
// which the experiment harness, the LUT table builders and the rack
// stepper call once per batch, and Pool, which a room's trace run and
// settle cross every segment barrier on.
//
// # The determinism contract
//
// Every fan-out in this codebase follows one rule:
//
//	job i writes only state owned by index i; every cross-index
//	reduction runs serially in index order after the fan-out barrier.
//
// Under this contract results are byte-identical to the serial order for
// any worker count and any goroutine schedule — there is no floating-point
// reassociation, no map iteration, no racing append. ForEach(n, 1, fn) is
// the serial reference path; race-enabled tests across the repository
// (internal/rack, internal/experiments) assert that workers=N reproduces
// workers=1 bitwise.
//
// Callers that need a reduction (energy sums, peak power, temperature
// maxima) must collect per-index results into a pre-sized slice inside the
// fan-out and fold them in a plain loop afterwards; they must not share
// accumulators across jobs.
//
// # The persistent pool
//
// ForEach starts fresh goroutines per call, which hand out indices as
// they come; a loop that crosses a barrier thousands of times per run
// pays that start-up each time and moves every job's state between cores.
// A Pool serves such a loop for one run:
//
//   - it has min(workers, GOMAXPROCS, n) workers, the caller included, so
//     a spinning worker never holds a P the caller needs; with one worker
//     Run is a plain loop on the caller and no goroutine starts;
//   - worker w owns the fixed, contiguous block [w·n/W, (w+1)·n/W) of the
//     n job indices for the pool's whole life, and the caller works block
//     0 itself;
//   - between rounds a worker spins for a bounded time, with a preemption
//     point in the loop, then parks until the next Run wakes it;
//   - a panicking job is re-raised from Run as a *JobPanic for the lowest
//     panicking index, after every job has run;
//   - Close ends every helper, so a pool closed when its run returns
//     leaves nothing running.
//
// Run keeps the contract above, so its results are byte-identical for any
// worker count, as ForEach's are.
package par
