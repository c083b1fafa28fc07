package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/loadgen"
	"repro/internal/sched"
)

// goldenSeed is the seed whose fixed-dt reference is committed as the
// repo's physics oracle.
const goldenSeed = 42

//go:embed golden/seed42.json
var goldenJSON []byte

// golden maps a workload name to its fixed-dt reference cells at
// goldenSeed and the workload's full horizon.
type golden map[string][]cellOut

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}

// sameCells reports the first difference between two cell lists, or "" when
// they are bit-identical (labels, counts, energies and digests).
func sameCells(want, got []cellOut) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d cells, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		switch {
		case w.Label != g.Label:
			return fmt.Sprintf("cell %d is %q, want %q", i, g.Label, w.Label)
		case w.Counts != g.Counts:
			return fmt.Sprintf("%s: counts %+v, want %+v", g.Label, g.Counts, w.Counts)
		case math.Float64bits(w.EnergyKWh) != math.Float64bits(g.EnergyKWh):
			return fmt.Sprintf("%s: energy %v kWh, want %v", g.Label, g.EnergyKWh, w.EnergyKWh)
		case !bytes.Equal(compactJSON(w.Digest), compactJSON(g.Digest)):
			return fmt.Sprintf("%s: results differ bitwise", g.Label)
		}
	}
	return ""
}

// reference runs a workload's cells once on the fixed-dt kernel — the
// untimed oracle every event rep is checked against — and returns every
// rack cell's Place decisions with it.
func reference(w workload, traces [][]loadgen.JobSpec) ([]cellOut, []*decisions, error) {
	p, err := setup(w, traces, nil)
	if err != nil {
		return nil, nil, err
	}
	out, logs, err := recordedRun(p, runOpts{fixed: true})
	if err != nil {
		return nil, nil, err
	}
	return out.cells, logs, nil
}

// decisions are one rack cell's Place calls in order: the job each call
// offered and the slot the policy chose (-1 for a refusal).
type decisions struct {
	jobs, picks []int
}

// samePlacements reports whether d and o placed the same jobs on the same
// slots in the same order. Refusals are left out: the event kernel skips
// retries a load-only refuser would provably refuse.
func (d *decisions) samePlacements(o *decisions) bool {
	placed := func(d *decisions) [][2]int {
		var out [][2]int
		for i, p := range d.picks {
			if p >= 0 {
				out = append(out, [2]int{d.jobs[i], p})
			}
		}
		return out
	}
	return slices.Equal(placed(d), placed(o))
}

// recorder appends every Place decision of the policy it wraps to log.
type recorder struct {
	sched.Policy
	log *decisions
}

func (r *recorder) Place(j sched.Job, views []sched.ServerView) int {
	i := r.Policy.Place(j, views)
	r.log.jobs = append(r.log.jobs, j.ID)
	r.log.picks = append(r.log.picks, i)
	return i
}

// replayer answers every Place call with the recorded decision of the same
// call, so a run takes exactly the recorded run's placements. A call for
// another job than the recorded one means the two runs did not reach the
// same decisions at the same instants; it is kept in err and the policy
// decides from then on.
type replayer struct {
	sched.Policy
	log  *decisions
	next int
	err  error
}

func (r *replayer) Place(j sched.Job, views []sched.ServerView) int {
	if r.err == nil && (r.next >= len(r.log.jobs) || r.log.jobs[r.next] != j.ID) {
		r.err = fmt.Errorf("Place call %d offers job %d, not the recorded run's", r.next+1, j.ID)
	}
	if r.err != nil {
		return r.Policy.Place(j, views)
	}
	r.next++
	return r.log.picks[r.next-1]
}

// done returns why the replay did not reproduce the recording, or nil.
func (r *replayer) done() error {
	if r.err == nil && r.next != len(r.log.jobs) {
		return fmt.Errorf("replayed %d of %d recorded Place calls", r.next, len(r.log.jobs))
	}
	return r.err
}

// recordedRun runs a rep's simulated phase recording every rack cell's
// Place decisions; room cells record nothing.
func recordedRun(p *prepared, o runOpts) (repOut, []*decisions, error) {
	logs := make([]*decisions, len(p.cells))
	for i, c := range p.cells {
		logs[i] = &decisions{}
		c.log = logs[i]
	}
	out, err := p.run(o)
	return out, logs, err
}

// alignReference makes every cell's reference a fixed-dt run with the
// event run's placements. Coolest-first ranks servers by die temperature,
// and the event kernel's temperatures sit within its drift of fixed-dt's,
// so a near-tie can break the other way: one rack-drained trace in about a
// hundred then places a job elsewhere and the two runs stop being the same
// schedule. Each cell whose placements differ is rerun on the fixed-dt
// kernel with the event run's decisions replayed, and that run becomes its
// reference, so the energy budget measures the kernel and not the tie. It
// returns the number of such cells; the replay must offer the same jobs at
// the same calls, or it is an error.
func alignReference(w workload, traces [][]loadgen.JobSpec, ref []cellOut, refLogs, eventLogs []*decisions) (int, error) {
	var flipped []int
	for i := range ref {
		if !refLogs[i].samePlacements(eventLogs[i]) {
			flipped = append(flipped, i)
		}
	}
	if len(flipped) == 0 {
		return 0, nil
	}
	p, err := setup(w, traces, nil)
	if err != nil {
		return 0, err
	}
	cells := make([]*cell, len(flipped))
	replays := make([]*replayer, len(flipped))
	for k, i := range flipped {
		c := p.cells[i]
		replays[k] = &replayer{Policy: c.policy, log: eventLogs[i]}
		c.policy = withPolicyOptionals(replays[k], c.policy)
		cells[k] = c
	}
	p.cells = cells
	out, err := p.run(runOpts{fixed: true})
	if err != nil {
		return 0, err
	}
	for k, i := range flipped {
		if err := replays[k].done(); err != nil {
			return 0, fmt.Errorf("%s: replaying the event run's placements: %w", ref[i].Label, err)
		}
		ref[i] = out.cells[k]
	}
	return len(flipped), nil
}

// checker holds a workload run's oracles: the fixed-dt reference, the
// energy budget against it, and the first event rep, which every later rep
// must reproduce bit for bit.
type checker struct {
	ref    []cellOut
	budget float64
	first  []cellOut
}

// energyRelErr is the largest |E_event − E_fixed| / E_fixed over cells.
func energyRelErr(ref, got []cellOut) float64 {
	worst := 0.0
	for i := range ref {
		if i >= len(got) {
			return math.Inf(1)
		}
		e := math.Abs(got[i].EnergyKWh-ref[i].EnergyKWh) / math.Abs(ref[i].EnergyKWh)
		if !(e <= worst) {
			worst = e
		}
	}
	return worst
}

// check returns why a rep failed, or "" when it passed: scheduling counts
// must equal the fixed-dt reference's, energies must agree within the
// event kernel's budget, results must be bit-identical to the first rep's,
// and every resumed run must be byte-identical to its uninterrupted run.
func (c *checker) check(got []cellOut) string {
	if len(got) != len(c.ref) {
		return fmt.Sprintf("%d cells, reference has %d", len(got), len(c.ref))
	}
	for i, g := range got {
		if g.Counts != c.ref[i].Counts {
			return fmt.Sprintf("%s: counts %+v differ from fixed-dt %+v", g.Label, g.Counts, c.ref[i].Counts)
		}
		if g.Resumed != nil && !bytes.Equal(g.Resumed, g.Digest) {
			return fmt.Sprintf("%s: resumed run differs from the uninterrupted run", g.Label)
		}
	}
	if e := energyRelErr(c.ref, got); !(e <= c.budget) {
		return fmt.Sprintf("energy deviates %.3g from fixed-dt (budget %g)", e, c.budget)
	}
	if c.first != nil {
		if d := sameCells(c.first, got); d != "" {
			return "not bit-identical to rep 1: " + d
		}
	}
	return ""
}
