package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinFor bounds how long a pool worker polls for its next round, and the
// caller for the workers' blocks, before parking. Karlin, Li, Manasse and
// Owicki ("Empirical studies of competitive spinning for a shared-memory
// multiprocessor", SOSP 1991) spin for about what one block and wake-up
// costs. On a shared 2-vCPU VM a goroutine parked on a channel resumed
// 5–6 µs after the send at the median and 14–26 µs at the 99th
// percentile, but a helper that parks between a room's segments costs far
// more than that wake-up: on the benchmark's room-dense workload (seed 42,
// 5–6 s runs) run_s_p50 read 0.163 s with a 10 µs bound, which parks
// between most segments, 0.112 s at 50 µs, 0.108 s at 100 µs,
// 0.100–0.107 s at 200 µs and 0.103–0.115 s at 500 µs. 200 µs outlasts
// the serial phase between two segments and still parks an idle pool
// within a fraction of a millisecond.
const spinFor = 200 * time.Microsecond

// spinPoll is how many polls a spinning worker makes between clock reads.
// Each read is followed by runtime.Gosched, the spin loop's preemption
// point: a stop-the-world phase or a runnable goroutine never waits on a
// spinner for more than about a microsecond.
const spinPoll = 256

// Pool runs the same n jobs again and again on persistent workers: the
// fan-out of a loop that crosses a barrier thousands of times per run,
// where fresh goroutines each round would take the jobs up on whichever
// core comes first and move every job's state between cores. Worker w
// owns the fixed, contiguous block of job indices [w·n/W, (w+1)·n/W) for
// the pool's whole life, so each job's state stays in the cache of the
// core that last ran it; the calling goroutine is worker 0 and works the
// first block itself.
//
// Between rounds a worker spins for a bounded time (spinFor) and then
// parks until the next Run wakes it. The pool has min(workers, GOMAXPROCS,
// n) workers: a spinner holding the only P would stall the caller, so
// with one worker Run is a plain loop on the calling goroutine and no
// goroutine is started. Close ends every helper goroutine; a pool that
// serves one run is closed when the run returns, so nothing spins between
// runs.
//
// Run keeps the determinism contract of ForEach: job i writes only state
// owned by index i, so results are byte-identical for any worker count.
// Run and Close must be called from one goroutine at a time.
type Pool struct {
	n      int
	blocks []int       // worker w runs jobs [blocks[w], blocks[w+1])
	fn     func(i int) // the current round's job, published by round
	round  atomic.Uint64
	done   atomic.Uint64 // helper blocks finished, summed over rounds
	closed bool          // set before the last round: helpers exit on it
	parks  []parker      // per worker; parks[0] is the caller's
	panics []*JobPanic   // per worker: the first panic in its block this round
	wg     sync.WaitGroup
}

// NewPool starts a pool over n jobs with at most `workers` workers (≤ 0
// means GOMAXPROCS), the caller included. Close it when the runs are done.
func NewPool(workers, n int) *Pool {
	n = max(n, 0)
	w := min(Workers(workers, n), runtime.GOMAXPROCS(0))
	p := &Pool{n: n, blocks: make([]int, w+1), parks: make([]parker, w), panics: make([]*JobPanic, w)}
	for i := range p.blocks {
		p.blocks[i] = i * n / w
	}
	if w > 1 {
		for i := range p.parks {
			p.parks[i].ch = make(chan struct{}, 1)
		}
		p.wg.Add(w - 1)
		for h := 1; h < w; h++ {
			go p.helper(h)
		}
	}
	return p
}

// Run calls fn(i) for every job index and returns when all calls have
// completed, the caller running the first block. A panicking job does not
// stop the others: every job still runs, and Run then repanics with a
// *JobPanic for the lowest panicking index.
func (p *Pool) Run(fn func(i int)) {
	if p.closed {
		panic("par: Run on a closed Pool")
	}
	helpers := uint64(len(p.parks) - 1)
	if helpers == 0 {
		var first *JobPanic
		for i := 0; i < p.n; i++ {
			serialRun(fn, i, &first)
		}
		if first != nil {
			panic(first)
		}
		return
	}
	p.fn = fn
	r := p.round.Add(1)
	for h := 1; h < len(p.parks); h++ {
		p.parks[h].wake()
	}
	p.runBlock(0)
	p.parks[0].await(&p.done, r*helpers)
	for w, jp := range p.panics {
		if jp != nil {
			clear(p.panics[w:])
			panic(jp)
		}
	}
}

// Close ends the helper goroutines and returns once they have exited.
// Closing twice is a no-op; Run after Close panics.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if len(p.parks) < 2 {
		return
	}
	p.round.Add(1)
	for h := 1; h < len(p.parks); h++ {
		p.parks[h].wake()
	}
	p.wg.Wait()
}

// helper is worker h's loop: wait for round r, work block h, report.
func (p *Pool) helper(h int) {
	defer p.wg.Done()
	helpers := uint64(len(p.parks) - 1)
	for r := uint64(1); ; r++ {
		p.parks[h].await(&p.round, r)
		if p.closed {
			return
		}
		p.runBlock(h)
		if p.done.Add(1) == r*helpers {
			p.parks[0].wake()
		}
	}
}

// runBlock runs worker w's jobs in index order, recording the first panic.
func (p *Pool) runBlock(w int) {
	for i := p.blocks[w]; i < p.blocks[w+1]; i++ {
		serialRun(p.fn, i, &p.panics[w])
	}
}

// parker is one worker's spin-then-park wait.
type parker struct {
	parked atomic.Bool
	ch     chan struct{} // capacity 1, so a wake-up never blocks the waker
}

// await returns once v reaches want: it spins for up to spinFor, then
// parks until wake. The waiter announces the park before its last check
// and the waker bumps v before reading the announcement, so one of the two
// always sees the other. A wake-up that arrives after the check succeeded
// stays in the channel, and costs the next park one extra spin.
func (pk *parker) await(v *atomic.Uint64, want uint64) {
	for v.Load() < want {
		if spin(v, want) {
			return
		}
		pk.parked.Store(true)
		if v.Load() < want {
			<-pk.ch
		}
		pk.parked.Store(false)
	}
}

// wake unparks the worker if it parked or is about to. Call it after the
// value the worker awaits has moved.
func (pk *parker) wake() {
	if pk.parked.Load() {
		select {
		case pk.ch <- struct{}{}:
		default:
		}
	}
}

// spin polls v for up to spinFor and reports whether it reached want.
func spin(v *atomic.Uint64, want uint64) bool {
	start := time.Now()
	for i := 1; v.Load() < want; i++ {
		if i%spinPoll == 0 {
			if time.Since(start) > spinFor {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}
