package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/experiments"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden/seed42.json from the current fixed-dt reference")

// toy shrinks a workload to two 600 s traces.
func toy(w workload) workload {
	w.horizon, w.traces = 600, 2
	return w
}

// TestWorkloadsToySize runs every workload at toy size through two event
// reps against the fixed-dt reference, then checks that a traced rep is
// byte-identical to an untraced rep carrying its own registry, and that the
// per-layer metrics assemble.
func TestWorkloadsToySize(t *testing.T) {
	for _, w := range workloads {
		w := toy(w)
		t.Run(w.name, func(t *testing.T) {
			traces, err := w.jobTraces(goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			ref, refLogs, err := reference(w, traces)
			if err != nil {
				t.Fatal(err)
			}
			chk := &checker{ref: ref, budget: w.energyBudget()}
			for rep := 1; rep <= 2; rep++ {
				p, err := setup(w, traces, nil)
				if err != nil {
					t.Fatal(err)
				}
				out, logs, err := recordedRun(p, runOpts{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range logs {
					if !logs[i].samePlacements(refLogs[i]) {
						t.Fatalf("rep %d: %s placed jobs unlike fixed-dt", rep, ref[i].Label)
					}
				}
				if why := chk.check(out.cells); why != "" {
					t.Fatalf("rep %d: %s", rep, why)
				}
				chk.first = out.cells
			}

			tr := newTracer()
			treg := obs.NewRegistry()
			rs := tr.begin(spanRep, "1")
			p, err := setup(w, traces, tr)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := p.run(runOpts{reg: treg, tr: tr})
			if err != nil {
				t.Fatal(err)
			}
			tr.end(rs)
			preg := obs.NewRegistry()
			plain, err := oneRep(w, traces, runOpts{reg: preg})
			if err != nil {
				t.Fatal(err)
			}
			if why := fidelity(traced, treg, plain, preg); why != "" {
				t.Fatalf("traced rep differs from untraced: %s", why)
			}
			if why := chk.check(traced.cells); why != "" {
				t.Fatalf("traced rep: %s", why)
			}
			if len(tr.open) != 0 {
				t.Fatalf("%d spans left open", len(tr.open))
			}
			calls := tr.calls()
			if calls["place"].Calls == 0 || calls["tick"].Calls == 0 {
				t.Errorf("wrappers saw no Place or Tick calls: %+v", calls)
			}
			if got := calls["choose"].Calls > 0; got != (w.kind == kindRoom) {
				t.Errorf("Choose calls %d on a %v workload", calls["choose"].Calls, w.kind)
			}
			if got := calls["checkpoint_sink"].Calls > 0 && calls["decode"].Calls > 0; got != (w.kind == kindFaults) {
				t.Errorf("checkpoint sink/decode calls %+v / %+v", calls["checkpoint_sink"], calls["decode"])
			}

			res := &result{}
			res.set("energy_rel_err", "ratio", energyRelErr(ref, traced.cells))
			costs := rungCosts{advK1: 1, advK16: 2, advK256: 3, roomW1: 2, roomW2: 1, rackStep: 1}
			layerMetrics(res, w, costs, treg, traced, tr, rs, calls, 0.01)
			for _, m := range perLayer {
				v, ok := res.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer %s = %+v", m.Name, v)
				}
			}
			if res.Metrics["decomp.explained_frac"].Value <= 0 {
				t.Error("decomposition explained nothing")
			}
		})
	}
}

// TestReplay: a fixed-dt run replaying a recorded run's placements
// reproduces it bit for bit, and a replay that is offered other calls than
// the recorded ones says so.
func TestReplay(t *testing.T) {
	w := toy(workloads[0])
	w.traces = 1
	traces, err := w.jobTraces(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	ref, logs, err := reference(w, traces)
	if err != nil {
		t.Fatal(err)
	}
	p, err := setup(w, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	replays := make([]*replayer, len(p.cells))
	for i, c := range p.cells {
		replays[i] = &replayer{Policy: c.policy, log: logs[i]}
		c.policy = withPolicyOptionals(replays[i], c.policy)
	}
	out, err := p.run(runOpts{fixed: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := sameCells(ref, out.cells); d != "" {
		t.Fatalf("replayed run differs: %s", d)
	}
	for i, r := range replays {
		if len(logs[i].jobs) == 0 {
			t.Fatalf("%s recorded no Place calls", ref[i].Label)
		}
		if err := r.done(); err != nil {
			t.Errorf("%s: %v", ref[i].Label, err)
		}
	}

	views := []sched.ServerView{{Index: 0, Free: 100}, {Index: 1, Free: 100}}
	other := &replayer{Policy: sched.NewRoundRobin(), log: &decisions{jobs: []int{7}, picks: []int{1}}}
	other.Place(sched.Job{ID: 8, Demand: 20}, views)
	if other.done() == nil {
		t.Error("a call for another job than the recorded one went unnoticed")
	}
	short := &replayer{Policy: sched.NewRoundRobin(), log: &decisions{jobs: []int{7, 8}, picks: []int{1, 0}}}
	if got := short.Place(sched.Job{ID: 7, Demand: 20}, views); got != 1 {
		t.Errorf("replayed pick %d, recorded 1", got)
	}
	if short.done() == nil {
		t.Error("an unreplayed recorded call went unnoticed")
	}
}

// TestPlacementFlipAligned: on rack-drained's third job trace at seed 11,
// coolest-first breaks a die-temperature near-tie the other way under the
// event kernel. Against the plain fixed-dt run the energy is then outside
// the budget; against the reference aligned on the event run's placements
// it is inside.
func TestPlacementFlipAligned(t *testing.T) {
	w, err := findWorkload("rack-drained")
	if err != nil {
		t.Fatal(err)
	}
	all, err := w.jobTraces(11)
	if err != nil {
		t.Fatal(err)
	}
	traces := all[2:3]
	ref, refLogs, err := reference(w, traces)
	if err != nil {
		t.Fatal(err)
	}
	p, err := setup(w, traces, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, logs, err := recordedRun(p, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if e := energyRelErr(ref, out.cells); e <= eventBudget {
		t.Fatalf("energy %.3g off the plain fixed-dt run; the trace no longer flips a placement", e)
	}
	flips, err := alignReference(w, traces, ref, refLogs, logs)
	if err != nil {
		t.Fatal(err)
	}
	if flips != 1 {
		t.Errorf("%d cells flipped, want 1 (coolest-first)", flips)
	}
	if e := energyRelErr(ref, out.cells); e > eventBudget {
		t.Errorf("energy %.3g off the aligned reference, budget %g", e, eventBudget)
	}
	if why := (&checker{ref: ref, budget: eventBudget}).check(out.cells); why != "" {
		t.Error(why)
	}
}

// TestTracesIndependent:runs at nearby seeds share no job trace.
func TestTracesIndependent(t *testing.T) {
	w, err := findWorkload("rack-drained")
	if err != nil {
		t.Fatal(err)
	}
	w.horizon = 3600
	seen := make(map[string]int64)
	for s := int64(0); s < 8; s++ {
		traces, err := w.jobTraces(s)
		if err != nil {
			t.Fatal(err)
		}
		for j, specs := range traces {
			b, err := json.Marshal(specs)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := seen[string(b)]; ok {
				t.Fatalf("seed %d trace %d repeats a trace of seed %d", s, j, prev)
			}
			seen[string(b)] = s
		}
	}
}

// TestMatchesExperiments:the harness's rack-drained at the default one-hour
// horizon runs exactly the program evalctl -rack -eventstep runs.
func TestMatchesExperiments(t *testing.T) {
	w, err := findWorkload("rack-drained")
	if err != nil {
		t.Fatal(err)
	}
	ev := experiments.DefaultRackEval()
	ev.EventStepping = true
	w.horizon, w.traces = ev.Horizon, 1
	traces, err := w.jobTraces(ev.TraceSeed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := oneRep(w, traces, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := experiments.RackPolicyComparison(server.T3Config(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(out.cells) {
		t.Fatalf("%d experiment rows, %d harness cells", len(rows), len(out.cells))
	}
	for i, row := range rows {
		want, err := digest(struct {
			Sched sched.Result
			Rack  any
		}{row.Sched, row.Rack})
		if err != nil {
			t.Fatal(err)
		}
		if out.cells[i].Label != cellLabel(0, row.Policy) || !bytes.Equal(out.cells[i].Digest, want) {
			t.Errorf("%s: harness result differs from experiments.RackPolicyComparison", row.Policy)
		}
	}
}

// TestGolden pins the fixed-dt reference of every workload at the golden
// seed. go test -run TestGolden -update rewrites the file.
func TestGolden(t *testing.T) {
	g := make(golden)
	for _, w := range workloads {
		traces, err := w.jobTraces(goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		if g[w.name], _, err = reference(w, traces); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden/seed42.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if d := sameCells(want[w.name], g[w.name]); d != "" {
			t.Errorf("%s: %s", w.name, d)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{100, 0.9}, {200, 0.95}, {40, 0.75}, {10, 0.5}, {1, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestBounds(t *testing.T) {
	lower := metricDef{Name: "run_s_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_rate", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m         metricDef
		base, cur float64
		regressed bool
	}{
		{lower, 1, 1.05, false},
		{lower, 1, 1.11, true},
		{lower, 1, 0.5, false},
		{lower, 0, 0, false},
		{lower, 0, 1e-9, true},
		{higher, 100, 95, false},
		{higher, 100, 89, true},
		{higher, 100, 150, false},
	} {
		if got := c.m.regressed(c.base, c.cur); got != c.regressed {
			t.Errorf("%s %v→%v: regressed %v, want %v", c.m.Name, c.base, c.cur, got, c.regressed)
		}
	}
}

// TestBaselineAgreement: the two committed timed runs of the same code must
// agree within every end-to-end metric's bound, in both directions, on
// every workload.
func TestBaselineAgreement(t *testing.T) {
	load := func(path string) map[string]map[string]float64 {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rs []result
		if err := json.Unmarshal(b, &rs); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out := make(map[string]map[string]float64)
		for _, r := range rs {
			out[r.Workload] = make(map[string]float64)
			for name, m := range r.Metrics {
				out[r.Workload][name] = m.Value
			}
		}
		return out
	}
	a, b := load("baseline/run1.json"), load("baseline/run2.json")
	for _, w := range workloads {
		for _, m := range endToEnd {
			x, okA := a[w.name][m.Name]
			y, okB := b[w.name][m.Name]
			switch {
			case !okA || !okB:
				t.Errorf("%s %s missing from a baseline run", w.name, m.Name)
			case m.regressed(x, y) || m.regressed(y, x):
				t.Errorf("%s %s: baseline runs read %v and %v, further apart than the %g bound", w.name, m.Name, x, y, m.Bound)
			}
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// metric and workload tables here.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark directory:", err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, benchmark default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, want %+v", spec.EndToEnd, endToEnd)
	}
	for _, m := range endToEnd {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s bound %g exceeds setup_s's %g; set-up carries the largest", m.Name, m.Bound, endToEnd[0].Bound)
		}
	}
	var layers []metricDef
	for _, m := range perLayer {
		if !workloadOnly[m.Name] {
			layers = append(layers, m)
		}
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("per_layer differs from the traced pass's compared metrics")
	}
}

// TestSummaryLine runs the command-line entry point on one workload and
// checks the contract of its last line.
func TestSummaryLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "rack-capped", "--seed", "7", "--seconds", "0.01", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("summary line keys %v", keys)
	}
	var d summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &d); err != nil {
		t.Fatal(err)
	}
	if !d.Correct || d.Attempted < 1 || d.Failed != 0 || len(d.Metrics) != len(endToEnd) {
		t.Fatalf("summary line %+v", d)
	}
	for _, m := range endToEnd {
		if v := d.Metrics[m.Name]; v.Unit != m.Unit || !(v.Value > 0) {
			t.Errorf("%s = %+v", m.Name, v)
		}
	}
	if len(lines) != 1+len(timedMetrics)+len(checks) {
		t.Errorf("%d lines, want one per metric plus the summary line", len(lines))
	}
}

// optionalSet names the optional kernel interfaces v implements.
func optionalSet(v any) []string {
	var s []string
	if _, ok := v.(control.HorizonPromiser); ok {
		s = append(s, "HorizonPromiser")
	}
	if _, ok := v.(control.BandPromiser); ok {
		s = append(s, "BandPromiser")
	}
	if _, ok := v.(control.Snapshotter); ok {
		s = append(s, "Snapshotter")
	}
	if _, ok := v.(sched.LoadOnlyRefuser); ok {
		s = append(s, "LoadOnlyRefuser")
	}
	if _, ok := v.(sched.StatefulPolicy); ok {
		s = append(s, "StatefulPolicy")
	}
	if _, ok := v.(room.RackCommitter); ok {
		s = append(s, "RackCommitter")
	}
	return s
}

// Synthetic values covering the optional-interface combinations no shipped
// type has.
type bareController struct{ control.Controller }
type horizonOnlyController struct {
	control.Controller
	control.HorizonPromiser
}
type snapshotOnlyController struct {
	control.Controller
	control.Snapshotter
}
type bandOnlyController struct{ control.BandPromiser }

func (bandOnlyController) Name() string                              { return "band-only" }
func (bandOnlyController) Tick(control.Observation) control.Decision { return control.Decision{} }
func (bandOnlyController) Reset()                                    {}

type statefulOnlyPolicy struct {
	sched.Policy
	sched.StatefulPolicy
}
type committerOnlyChooser struct {
	room.RackChooser
	room.RackCommitter
}

func TestWrapperForwarding(t *testing.T) {
	cfg := server.T3Config()
	table, err := lut.Build(cfg, lut.DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	lc, err := control.NewLUT(table, control.DefaultLUT())
	if err != nil {
		t.Fatal(err)
	}
	bb, err := control.NewBangBang(control.DefaultBangBang())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	obsv := control.Observation{Now: 5, Utilization: 60, MaxCPUTemp: 70, CurrentRPM: 3000}
	bb2, _ := control.NewBangBang(control.DefaultBangBang())
	controllers := []control.Controller{
		control.NewDefault(), lc, bb,
		bareController{control.NewDefault()},
		horizonOnlyController{control.NewDefault(), control.NewDefault()},
		snapshotOnlyController{control.NewDefault(), control.NewDefault()},
		bandOnlyController{bb2},
	}
	for _, c := range controllers {
		w := tr.wrapController(c)
		if got, want := optionalSet(w), optionalSet(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (%T): wrapper implements %v, wrapped %v", c.Name(), c, got, want)
		}
		if w.Name() != c.Name() {
			t.Errorf("%T: name %q", c, w.Name())
		}
		c.Reset()
		w.Reset()
		if h, ok := w.(control.HorizonPromiser); ok {
			w.Tick(obsv)
			want := c.(control.HorizonPromiser).QuietUntil(obsv.Now)
			if got := h.QuietUntil(obsv.Now); got != want {
				t.Errorf("%s: QuietUntil %v, want %v", c.Name(), got, want)
			}
		}
		if b, ok := w.(control.BandPromiser); ok {
			n1, p1, lo1, hi1, ok1 := b.QuietBand(obsv.Now)
			n2, p2, lo2, hi2, ok2 := c.(control.BandPromiser).QuietBand(obsv.Now)
			if n1 != n2 || p1 != p2 || lo1 != lo2 || hi1 != hi2 || ok1 != ok2 {
				t.Errorf("%s: QuietBand not forwarded", c.Name())
			}
		}
		if s, ok := w.(control.Snapshotter); ok {
			if !reflect.DeepEqual(s.ControlState(), c.(control.Snapshotter).ControlState()) {
				t.Errorf("%s: ControlState not forwarded", c.Name())
			}
			if err := s.SetControlState(s.ControlState()); err != nil {
				t.Errorf("%s: SetControlState: %v", c.Name(), err)
			}
		}
	}
	if tr.tick.calls.Load() == 0 {
		t.Error("wrapped Tick was not timed")
	}

	cfgs := experiments.RackServerConfigs(cfg, 4)
	tables := []*lut.Table{table, table, table, table}
	psu := power.DefaultPSU()
	psus := []*power.PSUModel{&psu, &psu, &psu, &psu}
	rackPolicies, err := experiments.RackPolicies(cfgs, tables, psus)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]power.ServerModel, len(cfgs))
	for i := range cfgs {
		models[i] = cfgs[i].Power
	}
	pa, err := sched.NewPUEAwareFromTables(tables, models, psus, cooling.DefaultFacility(18))
	if err != nil {
		t.Fatal(err)
	}
	rr := sched.NewRoundRobin()
	policies := append(rackPolicies, pa, statefulOnlyPolicy{sched.NewCoolestFirst(), rr})
	views := make([]sched.ServerView, len(cfgs))
	for i := range views {
		views[i] = sched.ServerView{Index: i, Free: 100, MaxCPUTemp: units.Celsius(50 + i), InletTemp: 25}
	}
	job := sched.Job{ID: 1, Duration: 10, Demand: 40}
	for _, p := range policies {
		w := tr.wrapPolicy(p)
		if got, want := optionalSet(w), optionalSet(p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (%T): wrapper implements %v, wrapped %v", p.Name(), p, got, want)
		}
		if w.Name() != p.Name() {
			t.Errorf("%T: name %q", p, w.Name())
		}
		p.Reset()
		want := p.Place(job, views)
		p.Reset()
		if got := w.Place(job, views); got != want {
			t.Errorf("%s: Place %d, want %d", p.Name(), got, want)
		}
		if l, ok := w.(sched.LoadOnlyRefuser); ok && l.RefusalIsLoadOnly() != p.(sched.LoadOnlyRefuser).RefusalIsLoadOnly() {
			t.Errorf("%s: RefusalIsLoadOnly not forwarded", p.Name())
		}
		if s, ok := w.(sched.StatefulPolicy); ok {
			if !reflect.DeepEqual(s.PolicyState(), p.(sched.StatefulPolicy).PolicyState()) {
				t.Errorf("%s: PolicyState not forwarded", p.Name())
			}
			if err := s.SetPolicyState(s.PolicyState()); err != nil {
				t.Errorf("%s: SetPolicyState: %v", p.Name(), err)
			}
		}
	}

	perRack := [][]*lut.Table{tables, tables}
	mc, err := room.NewMinCostRack(perRack)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := room.NewRecircAware(perRack, 0)
	if err != nil {
		t.Fatal(err)
	}
	choosers := []room.RackChooser{
		room.NewRoundRobinRacks(), room.NewLeastLoadedRack(), room.NewCoolestRack(), mc, ra,
		committerOnlyChooser{room.NewCoolestRack(), room.NewRoundRobinRacks()},
	}
	racks := []room.RackView{
		{Index: 0, Servers: 4, Healthy: 4, Free: 400, MaxFree: 100, MaxInletC: 27, Slots: views},
		{Index: 1, Servers: 4, Healthy: 4, Free: 400, MaxFree: 100, MaxInletC: 24, Slots: views},
	}
	for _, c := range choosers {
		w := tr.wrapChooser(c)
		if got, want := optionalSet(w), optionalSet(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (%T): wrapper implements %v, wrapped %v", c.Name(), c, got, want)
		}
		if w.Name() != c.Name() {
			t.Errorf("%T: name %q", c, w.Name())
		}
		if got, want := w.Choose(job, racks), c.Choose(job, racks); got != want {
			t.Errorf("%s: Choose %d, want %d", c.Name(), got, want)
		}
		if k, ok := w.(room.RackCommitter); ok {
			k.Committed(0)
			if got, want := w.Choose(job, racks), c.Choose(job, racks); got != want {
				t.Errorf("%s: Committed not forwarded (Choose %d, want %d)", c.Name(), got, want)
			}
		}
	}
	if tr.place.calls.Load() == 0 || tr.choose.calls.Load() == 0 {
		t.Error("wrapped Place/Choose were not timed")
	}
}
