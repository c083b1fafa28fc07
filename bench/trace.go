package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/units"
)

// Span names: the coarse workload → rep → cell → phase tree. Checkpoint
// spans nest inside the trace phase that took them.
const (
	spanWorkload   = "workload"
	spanRep        = "rep"
	spanSetup      = "setup"
	spanCell       = "cell"
	spanSettle     = "settle"
	spanTrace      = "trace"
	spanCheckpoint = "checkpoint"
	spanResume     = "resume"
)

// callBounds are the fixed histogram buckets (upper bounds, ns) of the
// aggregated call timings; a final +Inf bucket is implicit.
var callBounds = []int64{64, 128, 256, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10,
	32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}

// callStats aggregates one wrapped interface's calls: count, total busy
// time and a fixed-bucket histogram. Updates are atomic because controller
// ticks run on the room's fan-out goroutines.
type callStats struct {
	calls atomic.Int64
	ns    atomic.Int64
	hist  [16]atomic.Int64 // len(callBounds)+1
}

func (c *callStats) observe(d time.Duration) {
	ns := int64(d)
	c.calls.Add(1)
	c.ns.Add(ns)
	i := 0
	for i < len(callBounds) && ns > callBounds[i] {
		i++
	}
	c.hist[i].Add(1)
}

// callSummary is the JSON form of a callStats.
type callSummary struct {
	Calls   int64   `json:"calls"`
	TotalS  float64 `json:"total_s"`
	BoundNs []int64 `json:"bucket_le_ns"`
	Counts  []int64 `json:"bucket_counts"` // last entry is the +Inf bucket
}

func (c *callStats) summary() callSummary {
	s := callSummary{Calls: c.calls.Load(), TotalS: float64(c.ns.Load()) / 1e9, BoundNs: callBounds}
	for i := range c.hist {
		s.Counts = append(s.Counts, c.hist[i].Load())
	}
	return s
}

// busy is the wrapped interfaces' busy time, ns.
type busy struct {
	Place  int64 `json:"place"`
	Tick   int64 `json:"tick"`
	Choose int64 `json:"choose"`
	Sink   int64 `json:"checkpoint_sink"`
	Decode int64 `json:"decode"`
}

func (b busy) minus(o busy) busy {
	return busy{b.Place - o.Place, b.Tick - o.Tick, b.Choose - o.Choose, b.Sink - o.Sink, b.Decode - o.Decode}
}

// span is one traced interval. Busy is the wrapped calls' busy time inside
// it, so a span's self time is its duration minus that.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Busy    busy   `json:"busy_ns"`
	busy0   busy
}

// tracer records spans from the benchmark's own goroutine and owns the
// call statistics of every wrapper it hands out. A nil *tracer is the
// untraced path: every method is a no-op and wrap* return their argument.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int
	place  callStats
	tick   callStats
	choose callStats
	sink   callStats
	decode callStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) busyNow() busy {
	return busy{t.place.ns.Load(), t.tick.ns.Load(), t.choose.ns.Load(), t.sink.ns.Load(), t.decode.ns.Load()}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name, label string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Label: label,
		StartNs: int64(time.Since(t.epoch)), busy0: t.busyNow(),
	})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i together with any span still open inside it (an error
// return can leave a phase span open).
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now, b := int64(time.Since(t.epoch)), t.busyNow()
	for n := len(t.open); n > 0; n = len(t.open) {
		j := t.open[n-1]
		t.open = t.open[:n-1]
		s := &t.spans[j]
		s.EndNs, s.Busy = now, b.minus(s.busy0)
		if j == i {
			return
		}
	}
}

// decoded charges one checkpoint decode to the resume path.
func (t *tracer) decoded(d time.Duration) {
	if t != nil {
		t.decode.observe(d)
	}
}

// calls returns the wrappers' aggregated timings so far.
func (t *tracer) calls() map[string]callSummary {
	return map[string]callSummary{
		"place": t.place.summary(), "tick": t.tick.summary(), "choose": t.choose.summary(),
		"checkpoint_sink": t.sink.summary(), "decode": t.decode.summary(),
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrapSink times the checkpoint sink and gives each call a span.
func (t *tracer) wrapSink(sink func(sched.Checkpoint) error) func(sched.Checkpoint) error {
	if t == nil {
		return sink
	}
	return func(ck sched.Checkpoint) error {
		sp := t.begin(spanCheckpoint, "")
		t0 := time.Now()
		err := sink(ck)
		t.sink.observe(time.Since(t0))
		t.end(sp)
		return err
	}
}

// The kernels type-assert optional interfaces on the values they are
// handed, so a wrapper must implement exactly the optional set of the value
// it wraps: dropping one changes pins, adding one changes behaviour. Each
// wrap* below picks the wrapper type whose method set matches.

// wrapController times Tick and forwards control.HorizonPromiser,
// control.BandPromiser and control.Snapshotter when c implements them.
func (t *tracer) wrapController(c control.Controller) control.Controller {
	if t == nil {
		return c
	}
	base := &timedController{Controller: c, st: &t.tick}
	h, isH := c.(control.HorizonPromiser)
	b, isB := c.(control.BandPromiser)
	s, isS := c.(control.Snapshotter)
	switch {
	case isB && isS:
		return ctlHBS{base, horizonFwd{h}, bandFwd{b}, snapshotFwd{s}}
	case isB:
		return ctlHB{base, horizonFwd{h}, bandFwd{b}}
	case isH && isS:
		return ctlHS{base, horizonFwd{h}, snapshotFwd{s}}
	case isH:
		return ctlH{base, horizonFwd{h}}
	case isS:
		return ctlS{base, snapshotFwd{s}}
	}
	return base
}

type timedController struct {
	control.Controller
	st *callStats
}

func (w *timedController) Tick(o control.Observation) control.Decision {
	t0 := time.Now()
	d := w.Controller.Tick(o)
	w.st.observe(time.Since(t0))
	return d
}

type horizonFwd struct{ h control.HorizonPromiser }

func (f horizonFwd) QuietUntil(now float64) float64 { return f.h.QuietUntil(now) }

type bandFwd struct{ b control.BandPromiser }

func (f bandFwd) QuietBand(now float64) (next, period float64, lo, hi units.Celsius, ok bool) {
	return f.b.QuietBand(now)
}

type snapshotFwd struct{ s control.Snapshotter }

func (f snapshotFwd) ControlState() control.State            { return f.s.ControlState() }
func (f snapshotFwd) SetControlState(st control.State) error { return f.s.SetControlState(st) }

type ctlH struct {
	*timedController
	horizonFwd
}

type ctlHB struct {
	*timedController
	horizonFwd
	bandFwd
}

type ctlS struct {
	*timedController
	snapshotFwd
}

type ctlHS struct {
	*timedController
	horizonFwd
	snapshotFwd
}

type ctlHBS struct {
	*timedController
	horizonFwd
	bandFwd
	snapshotFwd
}

// wrapPolicy times Place and forwards sched.LoadOnlyRefuser and
// sched.StatefulPolicy when p implements them.
func (t *tracer) wrapPolicy(p sched.Policy) sched.Policy {
	if t == nil {
		return p
	}
	return withPolicyOptionals(&timedPolicy{Policy: p, st: &t.place}, p)
}

// withPolicyOptionals returns base, a wrapper around p, extended by the
// optional interfaces p implements: sched.LoadOnlyRefuser and
// sched.StatefulPolicy.
func withPolicyOptionals(base, p sched.Policy) sched.Policy {
	l, isL := p.(sched.LoadOnlyRefuser)
	s, isS := p.(sched.StatefulPolicy)
	switch {
	case isL && isS:
		return polLS{base, refuserFwd{l}, statefulFwd{s}}
	case isL:
		return polL{base, refuserFwd{l}}
	case isS:
		return polS{base, statefulFwd{s}}
	}
	return base
}

type timedPolicy struct {
	sched.Policy
	st *callStats
}

func (w *timedPolicy) Place(j sched.Job, views []sched.ServerView) int {
	t0 := time.Now()
	i := w.Policy.Place(j, views)
	w.st.observe(time.Since(t0))
	return i
}

type refuserFwd struct{ l sched.LoadOnlyRefuser }

func (f refuserFwd) RefusalIsLoadOnly() bool { return f.l.RefusalIsLoadOnly() }

type statefulFwd struct{ s sched.StatefulPolicy }

func (f statefulFwd) PolicyState() sched.PolicyState            { return f.s.PolicyState() }
func (f statefulFwd) SetPolicyState(st sched.PolicyState) error { return f.s.SetPolicyState(st) }

type polL struct {
	sched.Policy
	refuserFwd
}

type polS struct {
	sched.Policy
	statefulFwd
}

type polLS struct {
	sched.Policy
	refuserFwd
	statefulFwd
}

// wrapChooser times Choose and forwards room.RackCommitter and
// sched.LoadOnlyRefuser when c implements them.
func (t *tracer) wrapChooser(c room.RackChooser) room.RackChooser {
	if t == nil {
		return c
	}
	base := &timedChooser{RackChooser: c, st: &t.choose}
	k, isC := c.(room.RackCommitter)
	l, isL := c.(sched.LoadOnlyRefuser)
	switch {
	case isC && isL:
		return chCL{base, committerFwd{k}, refuserFwd{l}}
	case isC:
		return chC{base, committerFwd{k}}
	case isL:
		return chL{base, refuserFwd{l}}
	}
	return base
}

type timedChooser struct {
	room.RackChooser
	st *callStats
}

func (w *timedChooser) Choose(j sched.Job, racks []room.RackView) int {
	t0 := time.Now()
	i := w.RackChooser.Choose(j, racks)
	w.st.observe(time.Since(t0))
	return i
}

type committerFwd struct{ c room.RackCommitter }

func (f committerFwd) Committed(rackIdx int) { f.c.Committed(rackIdx) }

type chC struct {
	*timedChooser
	committerFwd
}

type chL struct {
	*timedChooser
	refuserFwd
}

type chCL struct {
	*timedChooser
	committerFwd
	refuserFwd
}
