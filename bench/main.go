// Command bench is the repository benchmark: it drives the simulator
// through four workloads, times untraced reps of each for a fixed wall-clock
// budget, checks every rep against a fixed-dt reference, and with -trace
// adds a traced run that reports per-layer counts, busy times and unit
// costs. See README.md for the workloads, metrics and bounds.
//
//	go run . -workload rack-drained -seed 42 -seconds 25
//	go run . -workload room-dense -trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
)

// defaultSeconds is the timed phase per workload run; BENCHMARK.json's
// run_seconds matches it.
const defaultSeconds = 25

// traceReps is the number of untraced/traced rep pairs in a -trace run;
// their medians give trace.overhead_frac.
const traceReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", goldenSeed, "Poisson job-trace seed")
	seconds := fs.Float64("seconds", defaultSeconds, "timed phase per workload, wall-clock seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed one")
	out := fs.String("out", "", "write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments, non-positive -seconds or -trace other than 0 or 1")
		return 2
	}
	todo := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		todo = []workload{w}
	}
	var results []*result
	for _, w := range todo {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), w.procs()))
		res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, f)
		}
		res.printLines(stdout)
		results = append(results, res)
	}
	if *out != "" {
		if err := writeReports(*out, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(summaryLine(results)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, r := range results {
		if r.fidelityBroken {
			return 1
		}
	}
	return 0
}

// spanPath is where a traced run writes its spans.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's report.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples holds every successful timed rep's measurements.
	Samples *samples `json:"samples,omitempty"`
	// Calls holds the traced rep's aggregated wrapper timings.
	Calls map[string]callSummary `json:"calls,omitempty"`

	order          []string // metric print order
	compared       []string // the metrics of the JSON summary line
	fidelityBroken bool
}

// samples are the raw per-rep measurements of the timed phase: wall-clock
// seconds of the calibration kernel (the mean of its runs before and after
// the rep), the set-up and the simulated phase, and MB allocated.
type samples struct {
	CalS    []float64 `json:"cal_s"`
	SetupS  []float64 `json:"setup_s"`
	RunS    []float64 `json:"run_s"`
	AllocMB []float64 `json:"alloc_mb"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metricValue)
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

const maxFailures = 8

func (r *result) fail(why string) {
	r.Correct = false
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, why)
	}
}

// printLines writes one "<workload> <metric> <value> <unit>" line per metric.
func (r *result) printLines(w io.Writer) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
}

// summary is the JSON line that ends standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summaryLine folds the results into the summary line. One workload reports
// its metrics by name; several prefix each with "<workload>/".
func summaryLine(results []*result) summary {
	d := summary{Correct: true, Metrics: make(map[string]metricValue)}
	for _, r := range results {
		d.Correct = d.Correct && r.Correct
		d.Attempted += r.Attempted
		d.Failed += r.Failed
		for _, name := range r.compared {
			key := name
			if len(results) > 1 {
				key = r.Workload + "/" + name
			}
			d.Metrics[key] = r.Metrics[name]
		}
	}
	return d
}

func writeReports(path string, results []*result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// measure runs one workload: the untimed fixed-dt reference and warm-up
// rep, then either the timed phase or the traced pass.
func measure(w workload, seed int64, budget time.Duration, traced bool) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: budget.Seconds(), Trace: traced, Correct: true}
	traces, err := w.jobTraces(seed)
	if err != nil {
		return nil, err
	}
	ref, refLogs, err := reference(w, traces)
	if err != nil {
		return nil, fmt.Errorf("fixed-dt reference: %w", err)
	}
	if seed == goldenSeed {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		if d := sameCells(g[w.name], ref); d != "" {
			res.fail("fixed-dt reference differs from golden/seed42.json: " + d)
		}
	}
	p, err := setup(w, traces, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up rep: %w", err)
	}
	warm, warmLogs, err := recordedRun(p, runOpts{})
	if err != nil {
		return nil, fmt.Errorf("warm-up rep: %w", err)
	}
	flips, err := alignReference(w, traces, ref, refLogs, warmLogs)
	if err != nil {
		res.fail(err.Error())
	}
	chk := &checker{ref: ref, budget: w.energyBudget()}
	if why := chk.check(warm.cells); why != "" {
		res.fail("warm-up rep: " + why)
	}
	chk.first = warm.cells
	res.set("energy_rel_err", "ratio", energyRelErr(ref, warm.cells))
	res.set("placement_flips", "count", float64(flips))
	if traced {
		err = measureTraced(res, w, traces, chk, spanPath(w.name, seed))
	} else {
		measureTimed(res, w, traces, chk, budget)
	}
	if err != nil {
		return nil, err
	}
	frac := 1.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	res.set("fail_frac", "ratio", frac)
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	return res, nil
}

func oneRep(w workload, traces [][]loadgen.JobSpec, o runOpts) (repOut, error) {
	p, err := setup(w, traces, o.tr)
	if err != nil {
		return repOut{}, err
	}
	return p.run(o)
}

// measureTimed runs untraced reps back to back until the budget is spent:
// each rep sets up from scratch and runs every cell, timed in two parts,
// between two runs of the calibration kernel (see calib.go for the
// normalization).
func measureTimed(res *result, w workload, traces [][]loadgen.JobSpec, chk *checker, budget time.Duration) {
	s := &samples{}
	var m0, m1 runtime.MemStats
	start := time.Now()
	for res.Attempted == 0 || time.Since(start) < budget {
		runtime.GC()
		calBefore := calibrate()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		p, err := setup(w, traces, nil)
		t1 := time.Now()
		var out repOut
		if err == nil {
			out, err = p.run(runOpts{})
		}
		t2 := time.Now()
		runtime.ReadMemStats(&m1)
		cal := (calBefore + calibrate()).Seconds() / 2
		if !res.checkRep(chk, out, err) {
			continue
		}
		s.CalS = append(s.CalS, cal)
		s.SetupS = append(s.SetupS, t1.Sub(t0).Seconds())
		s.RunS = append(s.RunS, t2.Sub(t1).Seconds())
		s.AllocMB = append(s.AllocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	res.Samples = s
	setupN, runN := normalized(s.SetupS, s.CalS), normalized(s.RunS, s.CalS)
	tailQ := tailQuantile(len(runN))
	vals := map[string]float64{
		"setup_s":        median(setupN),
		"run_s_p50":      median(runN),
		"run_s_tail":     quantile(runN, tailQ),
		"run_s_tail_q":   tailQ,
		"sim_rate":       w.simServerSeconds() / median(runN),
		"alloc_mb":       median(s.AllocMB),
		"reps":           float64(len(s.RunS)),
		"cal_s":          median(s.CalS),
		"wall_run_s_p50": median(s.RunS),
	}
	for _, m := range timedMetrics {
		v := vals[m.Name]
		if len(s.RunS) == 0 {
			v = 0 // no successful rep; the run is reported incorrect
		}
		res.set(m.Name, m.Unit, v)
	}
	for _, m := range endToEnd {
		res.compared = append(res.compared, m.Name)
	}
}

// normalized rescales each timing by its rep's calibration time to
// seconds on the reference host (calRefS).
func normalized(xs, cal []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = calRefS * x / cal[i]
	}
	return out
}

// measureTraced is the -trace pass: unit-cost rungs, traceReps pairs of
// untraced and traced reps, and the fidelity rep that checks the wrappers
// changed nothing.
func measureTraced(res *result, w workload, traces [][]loadgen.JobSpec, chk *checker, spansPath string) error {
	costs, err := measureRungs(w, traces)
	if err != nil {
		return fmt.Errorf("rungs: %w", err)
	}
	tr := newTracer()
	ws := tr.begin(spanWorkload, w.name)
	var untracedS, tracedS []float64
	var first repOut
	var firstReg *obs.Registry
	var firstCalls map[string]callSummary
	firstSpan := -1
	for i := 0; i < traceReps; i++ {
		runtime.GC()
		t0 := time.Now()
		out, err := oneRep(w, traces, runOpts{})
		untracedS = append(untracedS, time.Since(t0).Seconds())
		res.checkRep(chk, out, err)

		runtime.GC()
		reg := obs.NewRegistry()
		t0 = time.Now()
		rs := tr.begin(spanRep, strconv.Itoa(i+1))
		ss := tr.begin(spanSetup, "")
		p, err := setup(w, traces, tr)
		tr.end(ss)
		if err == nil {
			out, err = p.run(runOpts{reg: reg, tr: tr})
		}
		tr.end(rs)
		tracedS = append(tracedS, time.Since(t0).Seconds())
		res.checkRep(chk, out, err)
		if i == 0 {
			first, firstReg, firstSpan = out, reg, rs
			firstCalls = tr.calls()
		}
	}
	tr.end(ws)

	// Fidelity: an untraced rep carrying a registry must match the first
	// traced rep byte for byte — results, resumed results and metric dump.
	reg := obs.NewRegistry()
	plain, err := oneRep(w, traces, runOpts{reg: reg})
	res.checkRep(chk, plain, err)
	if why := fidelity(first, firstReg, plain, reg); why != "" {
		res.fidelityBroken = true
		res.fail("trace fidelity: " + why)
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return err
	}
	if err := tr.writeJSONL(spansPath); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	res.Calls = firstCalls
	overhead := median(tracedS)/median(untracedS) - 1
	layerMetrics(res, w, costs, firstReg, first, tr, firstSpan, firstCalls, overhead)
	return nil
}

// checkRep counts one attempted rep, checks it against the oracles and
// reports whether it passed.
func (r *result) checkRep(chk *checker, out repOut, err error) bool {
	r.Attempted++
	why := ""
	if err != nil {
		why = err.Error()
	} else {
		why = chk.check(out.cells)
	}
	if why != "" {
		r.Failed++
		r.fail(fmt.Sprintf("rep %d: %s", r.Attempted, why))
	}
	return why == ""
}

// fidelity compares a traced rep with an untraced one that carried its own
// registry, returning the first difference or "".
func fidelity(traced repOut, treg *obs.Registry, plain repOut, preg *obs.Registry) string {
	if d := sameCells(plain.cells, traced.cells); d != "" {
		return d
	}
	for i := range plain.cells {
		if !bytes.Equal(plain.cells[i].Resumed, traced.cells[i].Resumed) {
			return plain.cells[i].Label + ": resumed results differ"
		}
	}
	var a, b bytes.Buffer
	if err := treg.WriteText(&a); err != nil {
		return err.Error()
	}
	if err := preg.WriteText(&b); err != nil {
		return err.Error()
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return "metric dumps differ"
	}
	return ""
}
