package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// withProcs runs f at the given GOMAXPROCS and restores the old value.
func withProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// waitGoroutines polls until runtime.NumGoroutine() is back to at most
// want: a helper that has signalled its exit may still be unwinding, and
// so may an earlier test's, which can leave the count below want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolFixedBlocks: every index runs on the worker owning its block on
// every one of 100 Runs — the caller works [0, n/W), helper w the
// contiguous [w·n/W, (w+1)·n/W) — and each index runs exactly once per Run.
func TestPoolFixedBlocks(t *testing.T) {
	withProcs(t, 4, func() {
		for _, tc := range []struct{ workers, n, want int }{{3, 10, 3}, {2, 8, 2}, {4, 3, 3}, {16, 9, 4}} {
			p := NewPool(tc.workers, tc.n)
			owner := make([]uint64, tc.n)
			runs := make([]int32, tc.n)
			caller := goid()
			for r := 0; r < 100; r++ {
				p.Run(func(i int) {
					atomic.AddInt32(&runs[i], 1)
					if id := goid(); r == 0 {
						owner[i] = id
					} else if id != owner[i] {
						t.Errorf("workers=%d n=%d run %d: index %d moved from goroutine %d to %d", tc.workers, tc.n, r, i, owner[i], id)
					}
				})
			}
			p.Close()
			for w := 0; w < tc.want; w++ {
				lo, hi := w*tc.n/tc.want, (w+1)*tc.n/tc.want
				for i := lo; i < hi; i++ {
					if owner[i] != owner[lo] {
						t.Errorf("workers=%d n=%d: index %d not on its block's worker", tc.workers, tc.n, i)
					}
					if lo > 0 && owner[i] == owner[0] {
						t.Errorf("workers=%d n=%d: index %d of block %d ran on block 0's worker", tc.workers, tc.n, i, w)
					}
				}
				if w == 0 && hi > 0 && owner[0] != caller {
					t.Errorf("workers=%d n=%d: block 0 ran on goroutine %d, not the caller %d", tc.workers, tc.n, owner[0], caller)
				}
			}
			for i, c := range runs {
				if c != 100 {
					t.Errorf("workers=%d n=%d: index %d ran %d times in 100 Runs", tc.workers, tc.n, i, c)
				}
			}
		}
	})
}

// TestPoolSingleProcInline: with GOMAXPROCS 1 a pool starts no goroutine
// and runs every job on the caller, whatever workers it was asked for — a
// spinner holding the only P would stall the caller.
func TestPoolSingleProcInline(t *testing.T) {
	withProcs(t, 1, func() {
		base := runtime.NumGoroutine()
		p := NewPool(4, 8)
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("GOMAXPROCS 1: pool started %d goroutines", got-base)
		}
		caller := goid()
		for r := 0; r < 3; r++ {
			p.Run(func(i int) {
				if goid() != caller {
					t.Errorf("GOMAXPROCS 1: index %d ran off the caller", i)
				}
			})
		}
		p.Close()
	})
}

// TestPoolPanicContainment: a panicking job stops no other, and Run
// repanics with a *JobPanic for the lowest panicking index — wherever the
// panics ran — after which the pool keeps working.
func TestPoolPanicContainment(t *testing.T) {
	withProcs(t, 4, func() {
		for _, workers := range []int{1, 2, 3} {
			for _, bad := range [][]int{{7}, {2, 7}, {8, 9, 1}} {
				const n = 10
				p := NewPool(workers, n)
				seen := make([]int32, n)
				var got *JobPanic
				func() {
					defer func() {
						jp, ok := recover().(*JobPanic)
						if !ok {
							t.Fatalf("workers=%d bad=%v: no *JobPanic", workers, bad)
						}
						got = jp
					}()
					p.Run(func(i int) {
						atomic.AddInt32(&seen[i], 1)
						for _, b := range bad {
							if i == b {
								panic("boom " + strconv.Itoa(i))
							}
						}
					})
				}()
				lowest := bad[0]
				for _, b := range bad {
					lowest = min(lowest, b)
				}
				if got.Slot != lowest || got.Value != "boom "+strconv.Itoa(lowest) || len(got.Stack) == 0 {
					t.Errorf("workers=%d bad=%v: JobPanic{Slot: %d, Value: %v}, want slot %d", workers, bad, got.Slot, got.Value, lowest)
				}
				for i, c := range seen {
					if c != 1 {
						t.Errorf("workers=%d bad=%v: index %d ran %d times", workers, bad, i, c)
					}
				}
				var after atomic.Int32
				p.Run(func(int) { after.Add(1) })
				if after.Load() != n {
					t.Errorf("workers=%d bad=%v: the Run after a panic ran %d of %d jobs", workers, bad, after.Load(), n)
				}
				p.Close()
			}
		}
	})
}

// TestPoolCloseEndsHelpers: Close returns the goroutine count to where it
// was before NewPool, from a pool whose helpers are spinning and from one
// whose helpers have parked; closing twice is a no-op and Run after Close
// panics.
func TestPoolCloseEndsHelpers(t *testing.T) {
	withProcs(t, 4, func() {
		for _, idle := range []time.Duration{0, 5 * spinFor} {
			base := runtime.NumGoroutine()
			p := NewPool(4, 8)
			var sum atomic.Int64
			owner := make([]uint64, 8)
			for r := 0; r < 10; r++ {
				p.Run(func(i int) {
					sum.Add(int64(i))
					owner[i] = goid()
				})
			}
			if distinct := map[uint64]bool{owner[0]: true, owner[2]: true, owner[4]: true, owner[6]: true}; len(distinct) != 4 {
				t.Fatalf("pool of 4 ran its blocks on %d goroutines", len(distinct))
			}
			time.Sleep(idle)
			p.Close()
			p.Close()
			waitGoroutines(t, base)
			if sum.Load() != 10*28 {
				t.Fatalf("10 Runs over 8 jobs summed %d, want 280", sum.Load())
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Run after Close did not panic")
					}
				}()
				p.Run(func(int) {})
			}()
		}
	})
}
