package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: n ≤ 0 means GOMAXPROCS, and
// the result never exceeds the number of jobs.
func Workers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// JobPanic is the value ForEach repanics with when a job panics: the
// original panic value annotated with the slot index that raised it and the
// stack captured at the recovery point. Callers running untrusted policy or
// controller code can recover it one level up and attribute the failure to
// a specific slot instead of losing the whole process with no attribution.
type JobPanic struct {
	Slot  int
	Value any
	Stack []byte
}

// Error makes a JobPanic usable as an error after recovery.
func (p *JobPanic) Error() string {
	return fmt.Sprintf("par: job %d panicked: %v", p.Slot, p.Value)
}

func (p *JobPanic) String() string { return p.Error() }

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines and returns when all calls have completed. With workers ≤ 1 it
// degenerates to a plain serial loop on the calling goroutine — the
// reference path parallel runs are tested against.
//
// A panicking job does not take down its worker: the panic is recovered,
// every remaining job still runs, all workers drain, and ForEach then
// repanics on the calling goroutine with a *JobPanic carrying the slot
// index. When several jobs panic the first one recorded wins; on the serial
// path that is deterministically the lowest panicking slot.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		// Rack.Step leans on this path staying allocation-free, so the
		// panic capture uses a named helper and a plain pointer instead
		// of a closure over an atomic slot.
		var first *JobPanic
		for i := 0; i < n; {
			i = serialRun(fn, i, n, &first)
		}
		if first != nil {
			panic(first)
		}
		return
	}
	var first atomic.Pointer[JobPanic]
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				first.CompareAndSwap(nil, &JobPanic{Slot: i, Value: v, Stack: debug.Stack()})
			}
		}()
		fn(i)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if p := first.Load(); p != nil {
		panic(p)
	}
}

// serialRun executes fn(i), fn(i+1), …, fn(n−1) under one panic capture
// and returns where it stopped: n, or the slot after a panicking one,
// which it records unless an earlier slot panicked first. One capture per
// run of slots, not per slot, keeps a serial fan-out as cheap as a plain
// loop. A named function rather than a closure: the workers==1 path must
// not touch the heap outside the panic case.
func serialRun(fn func(int), i, n int, first **JobPanic) (next int) {
	defer func() {
		if v := recover(); v != nil {
			if *first == nil {
				*first = &JobPanic{Slot: i, Value: v, Stack: debug.Stack()}
			}
			next = i + 1
		}
	}()
	for ; i < n; i++ {
		fn(i)
	}
	return n
}
