// Command evalctl reproduces the paper's Section V evaluation: Table I
// (four 80-minute test workloads under the Default, bang-bang and LUT
// controllers) and the Figure 3 temperature traces.
//
// Usage:
//
//	evalctl                 # Table I
//	evalctl -fig3           # Figure 3 traces for Test-3
//	evalctl -test 2         # a single test's rows
//	evalctl -seed 7         # different stochastic workload seed
//	evalctl -fig3 -csv      # Fig 3 traces as CSV
//	evalctl -rack           # rack-scale placement-policy comparison
//	evalctl -rack -servers 16 -horizon 7200
//	evalctl -rack -cap 2500 # wall-power budget for the capped runs
//	evalctl -rack -ideal    # lossless delivery chain (wall == DC)
//	evalctl -rack -lutcache /tmp/luts   # reuse LUTs across processes
//	evalctl -rack -eventstep            # event-driven kernel (several-fold faster)
//	evalctl -facility       # policy × cold-aisle-setpoint facility sweep
//	evalctl -facility -setpoints 14,21,28
//	evalctl -faults         # fault-scenario × policy degradation catalogue
//	evalctl -faults -drop   # abandon killed jobs instead of requeueing
//	evalctl -room           # room-scale two-level placement comparison
//	evalctl -room -racks 8 -servers 16 -eventstep
//	evalctl -room -recirc w.txt         # recirculation matrix from a file
//	evalctl -room -norecirc -nofacility # independent racks (PR 8 physics)
//
// -rack, -facility, -faults and -room run presets of one
// experiments.Scenario, and every flag maps onto it the same way. A flag
// the chosen mode does not honour is an error; each flag's help names the
// modes it serves.
//
// Long runs can be checkpointed and resumed (single-policy rack runs):
//
//	evalctl -rack -policy round-robin -checkpoint run.snap   # periodic snapshots + SIGINT capture
//	evalctl -rack -policy round-robin -resume run.snap       # continue an interrupted run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/cooling"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/power"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/snap"
	"repro/internal/units"
	"repro/internal/workload"
)

// scenarioFlags are the flags every scenario mode honours.
const scenarioFlags = "seed servers horizon rate policy lutcache eventstep fanctl metrics debugaddr"

// modeFlags lists, per mode, the flags it honours besides its own switch:
// "" is Table I, the others are named after their switch.
var modeFlags = map[string]string{
	"":         "test seed debugaddr",
	"fig3":     "csv seed debugaddr",
	"rack":     scenarioFlags + " cap ideal backfill checkpoint ckevery resume",
	"facility": scenarioFlags + " cap ideal backfill setpoints",
	"faults":   scenarioFlags + " cap ideal backfill drop",
	"room":     scenarioFlags + " racks recirc norecirc nofacility econ",
}

// modeNames orders the switches for messages: the scenario modes, then -fig3.
var modeNames = []string{"rack", "facility", "faults", "room", "fig3"}

// servedBy names the modes that honour the flag, for its help text.
func servedBy(name string) string {
	var out []string
	if strings.Contains(" "+modeFlags[""]+" ", " "+name+" ") {
		out = append(out, "Table I")
	}
	for _, m := range modeNames {
		if strings.Contains(" "+modeFlags[m]+" ", " "+name+" ") {
			out = append(out, "-"+m)
		}
	}
	return strings.Join(out, ", ")
}

// pickMode returns the mode that the flags set away from their defaults
// select — one of modeNames, or "" for Table I — or an error when more
// than one switch is set or a set flag does not apply to the mode.
func pickMode(set []string) (string, error) {
	has := map[string]bool{}
	for _, name := range set {
		has[name] = true
	}
	mode := ""
	for _, m := range modeNames {
		if !has[m] {
			continue
		}
		if mode != "" {
			return "", fmt.Errorf("evalctl: -%s and -%s select different modes; pick one", mode, m)
		}
		mode = m
	}
	label := "Table I"
	if mode != "" {
		label = "-" + mode
	}
	for _, name := range set {
		if name != mode && !strings.Contains(" "+modeFlags[mode]+" ", " "+name+" ") {
			return "", fmt.Errorf("evalctl: -%s does not apply to %s (it serves %s)", name, label, servedBy(name))
		}
	}
	switch {
	case has["ckevery"] && !has["checkpoint"]:
		return "", fmt.Errorf("evalctl: -ckevery sets the cadence of -checkpoint")
	case has["recirc"] && has["norecirc"]:
		return "", fmt.Errorf("evalctl: -recirc and -norecirc both set the room's coupling; pick one")
	}
	return mode, nil
}

// presets are the scenario each mode starts from before the flags apply.
var presets = map[string]func() experiments.Scenario{
	"rack": func() experiments.Scenario {
		sc := experiments.DefaultRackEval()
		psu, pdu := power.DefaultPSU(), power.DefaultPDU()
		sc.PSU, sc.PDU = &psu, &pdu
		sc.WallCapsW = []float64{0, experiments.AutoCap}
		return sc
	},
	"facility": experiments.DefaultFacilityEval,
	"faults":   experiments.DefaultFaultEval,
	"room":     experiments.DefaultRoomEval,
}

// ambientList renders the distinct rack ambients in slot order, derived
// from the experiment's actual server configurations so the banner cannot
// desync from the gradient.
func ambientList(base server.Config, n int) string {
	var out string
	seen := map[float64]bool{}
	for _, c := range experiments.RackServerConfigs(base, n) {
		a := float64(c.Ambient)
		if seen[a] {
			continue
		}
		seen[a] = true
		if out != "" {
			out += "/"
		}
		out += fmt.Sprintf("%g", a)
	}
	return out
}

// checkSize rejects a negative or non-finite size flag, which the
// experiments would otherwise replace by their default without a word; 0
// picks the default.
func checkSize(name string, v float64) error {
	if v >= 0 && !math.IsInf(v, 0) {
		return nil
	}
	return fmt.Errorf("evalctl: -%s must be 0 (the default) or positive and finite, got %g", name, v)
}

// fail prints err and exits 1.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	flag.Bool("fig3", false, "emit Figure 3 temperature traces for Test-3")
	testID := flag.Int("test", 0, "run a single test id 1-4 (0 = all)")
	seed := flag.Int64("seed", 42, "seed for the stochastic workloads and the job trace")
	csv := flag.Bool("csv", false, "CSV output")
	flag.Bool("rack", false, "run the rack-scale placement-policy comparison")
	flag.Bool("room", false, "run the room-scale two-level placement comparison (N racks behind one CRAC bank)")
	racks := flag.Int("racks", 0, "room size in racks (0 = default)")
	recircFile := flag.String("recirc", "", "load the recirculation matrix from a file (rows of weights; '#' comments)")
	noRecirc := flag.Bool("norecirc", false, "zero recirculation matrix (uncoupled racks)")
	noFacility := flag.Bool("nofacility", false, "drop the shared CRAC bank (cooling exactly zero, PUE exactly 1)")
	econ := flag.Bool("econ", false, "fit the water-side economizer to the shared bank")
	flag.Bool("facility", false, "run the policy × cold-aisle-setpoint facility sweep")
	flag.Bool("faults", false, "run the fault-scenario × policy degradation catalogue")
	dropOnFault := flag.Bool("drop", false, "abandon killed jobs instead of requeueing them")
	setpoints := flag.String("setpoints", "", "comma-separated supply setpoints in °C (default 14,21,28)")
	servers := flag.Int("servers", 0, "rack size (0 = default)")
	horizon := flag.Float64("horizon", 0, "measured window in seconds (0 = default)")
	capW := flag.Float64("cap", 0,
		"wall-power budget in W of the capped cells (-rack: its capped half; otherwise every cell); "+
			"0 = the mode's default (-rack: auto), negative = uncapped runs only")
	policyFlag := flag.String("policy", "",
		"keep only one placement policy's rows, by name (rack modes: round-robin, least-utilized, "+
			"coolest-first, leakage-aware, cap-aware, with a facility pue-aware; -room: rr, least-loaded, "+
			"coolest, min-cost, recirc-aware, recirc-pue); useful with -metrics, whose registry otherwise "+
			"aggregates every policy's run into one dump")
	ideal := flag.Bool("ideal", false, "lossless delivery chain: no PSU/PDU, wall == DC")
	lutCache := flag.String("lutcache", "", "directory for the cross-process LUT disk cache")
	eventStep := flag.Bool("eventstep", false,
		"event-driven trace kernel: advance the racks per scheduling event instead of per fixed dt "+
			"(several-fold faster; energies within 1e-6 of the fixed-dt reference)")
	rate := flag.Float64("rate", 0,
		"job arrival rate in jobs/s (0 = experiment default; raise it well past capacity for a saturated backlog)")
	backfill := flag.Bool("backfill", false,
		"let jobs queued behind a blocked head place out of order "+
			"(FIFO backfill pass under the same cap admission; the head keeps strict priority)")
	fanCtl := flag.String("fanctl", "", "fan controller: lut (default) or bang (the Section V reactive policy)")
	metricsFlag := flag.Bool("metrics", false,
		"attach a run-metrics registry (internal/obs) and print the pin-reason breakdown plus the full "+
			"sorted counter dump after the tables")
	debugAddr := flag.String("debugaddr", "",
		"host:port serving /metrics (Prometheus text format of the live run-metrics registry) and "+
			"/debug/pprof for the duration of the run, e.g. localhost:6060")
	ckptFile := flag.String("checkpoint", "",
		"with -policy: write periodic run checkpoints to this file (atomic replace, see -ckevery) and, "+
			"on SIGINT, capture the interrupt-instant checkpoint there before exiting; resume later with -resume")
	ckptEvery := flag.Float64("ckevery", 60, "simulated seconds between periodic checkpoints for -checkpoint")
	resumeFile := flag.String("resume", "",
		"with -policy: resume the run from a checkpoint file written by -checkpoint "+
			"(the other flags must match the interrupted run's)")
	flag.VisitAll(func(f *flag.Flag) {
		if m := servedBy(f.Name); m != "" {
			f.Usage += " [" + m + "]"
		}
	})
	flag.Parse()
	for _, err := range []error{checkSize("horizon", *horizon), checkSize("rate", *rate),
		checkSize("servers", float64(*servers)), checkSize("racks", float64(*racks))} {
		if err != nil {
			fail(err)
		}
	}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if f.Value.String() != f.DefValue {
			set = append(set, f.Name)
		}
	})
	mode, err := pickMode(set)
	if err != nil {
		fail(err)
	}
	single := *ckptFile != "" || *resumeFile != ""
	if single && *policyFlag == "" {
		fail(errors.New("evalctl: -checkpoint/-resume capture exactly one run; combine them with -rack and a single -policy"))
	}

	cfg := server.T3Config()

	// One registry is shared by every run of the selected experiment; the
	// HTTP surface serves it live while the runs are still in flight.
	var reg *obs.Registry
	if *metricsFlag || *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	if *debugAddr != "" {
		hostport, err := serveDebug(*debugAddr, reg)
		if err != nil {
			fail(err)
		}
		fmt.Printf("debug server: http://%s/metrics and http://%s/debug/pprof/\n", hostport, hostport)
	}

	switch mode {
	case "":
		tableI(cfg, *seed, *testID)
		return
	case "fig3":
		figure3(cfg, *seed, *csv)
		return
	}

	// The one flag-to-scenario path.
	sc := presets[mode]()
	sc.TraceSeed = *seed
	if *servers > 0 {
		sc.Servers = *servers
	}
	if *horizon > 0 {
		sc.Horizon = *horizon
	}
	if *rate > 0 {
		sc.Rate = *rate
	}
	if *racks > 0 {
		sc.Racks = *racks
	}
	sc.Policy, sc.FanControl, sc.LUTCacheDir, sc.Metrics = *policyFlag, *fanCtl, *lutCache, reg
	sc.EventStepping, sc.Backfill, sc.DropOnFault, sc.Economizer = *eventStep, *backfill, *dropOnFault, *econ
	if *ideal {
		sc.PSU, sc.PDU = nil, nil
	}
	switch {
	case single:
		// One run: uncapped unless -cap names a budget.
		sc.WallCapsW = []float64{math.Max(*capW, 0)}
	case *capW < 0:
		sc.WallCapsW = nil
	case *capW > 0:
		// The budget replaces the preset's last cap block: -rack keeps its
		// uncapped half, the other modes cap every cell.
		n := max(len(sc.WallCapsW), 1)
		sc.WallCapsW = append(append([]float64(nil), sc.WallCapsW[:n-1]...), *capW)
	}
	if *setpoints != "" {
		sc.SetpointsC = nil
		for _, tok := range strings.Split(*setpoints, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fail(fmt.Errorf("evalctl: bad -setpoints entry %q: %v", tok, err))
			}
			sc.SetpointsC = append(sc.SetpointsC, units.Celsius(v))
		}
	}
	if *noFacility {
		sc.SetpointsC = nil
	}
	if *noRecirc {
		sc.Recirc = room.NewMatrix(sc.Racks)
	}
	if *recircFile != "" {
		data, err := os.ReadFile(*recircFile)
		if err != nil {
			fail(fmt.Errorf("evalctl: %w", err))
		}
		if sc.Recirc, err = room.ParseMatrix(data); err != nil {
			fail(fmt.Errorf("evalctl: %w", err))
		}
	}
	if single {
		stop := armCheckpoints(&sc, *ckptFile, *ckptEvery, *resumeFile)
		defer stop()
	}

	rows, err := experiments.RunScenario(cfg, sc)
	var c *sched.Cancelled
	if errors.As(err, &c) && *ckptFile != "" {
		if werr := snap.EncodeFile(*ckptFile, c.Checkpoint); werr != nil {
			fail(fmt.Errorf("evalctl: writing interrupt checkpoint: %w", werr))
		}
		fmt.Fprintf(os.Stderr, "\nevalctl: interrupted at step %d/%d; checkpoint written to %s\n",
			c.Checkpoint.K, c.Checkpoint.Steps, *ckptFile)
		fmt.Fprintf(os.Stderr, "resume with: evalctl -rack -policy %s -resume %s (plus this run's other flags)\n",
			sc.Policy, *ckptFile)
		os.Exit(130)
	}
	if err != nil {
		fail(fmt.Errorf("evalctl: %w", err))
	}
	switch mode {
	case "rack":
		err = printRack(cfg, sc, rows, single)
	case "facility":
		err = printFacility(cfg, sc, rows)
	case "faults":
		err = printFaults(cfg, sc, rows)
	case "room":
		err = printRoom(cfg, sc, rows)
	}
	if err != nil {
		fail(fmt.Errorf("evalctl: %w", err))
	}
	if *metricsFlag {
		printMetrics(os.Stdout, reg)
	}
}

// armCheckpoints wires the crash-safe single-policy rack run: an optional
// resume from a snapshot file, periodic checkpoints at the -ckevery
// cadence (each an atomic file replace, so a crash mid-write keeps the
// previous one), and a SIGINT context that stops the run at its next
// decision-step boundary so main can write the interrupt-instant
// checkpoint and print the resume command. Resuming then continuing to the
// horizon is byte-identical to the run that was never interrupted. The
// returned func releases the signal handler.
func armCheckpoints(sc *experiments.Scenario, ckptFile string, ckptEvery float64, resumeFile string) func() {
	if resumeFile != "" {
		var ck sched.Checkpoint
		if err := snap.DecodeFile(resumeFile, &ck); err != nil {
			fail(fmt.Errorf("evalctl: %w", err))
		}
		sc.Resume = &ck
		// stderr, so a resumed run's stdout stays byte-identical to the
		// uninterrupted run's — the property the CI smoke diffs on.
		fmt.Fprintf(os.Stderr, "resuming %s from %s: step %d/%d (t=%.0f s)\n",
			sc.Policy, resumeFile, ck.K, ck.Steps, float64(ck.K)*ck.Dt)
	}
	if ckptFile == "" {
		return func() {}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	sc.Ctx = ctx
	sc.CheckpointEvery = ckptEvery
	sc.CheckpointSink = func(ck sched.Checkpoint) error {
		if err := snap.EncodeFile(ckptFile, ck); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "checkpoint: step %d/%d -> %s\n", ck.K, ck.Steps, ckptFile)
		return nil
	}
	return stop
}

// printRack renders -rack: the DC-side table of the first cap block and,
// when the scenario has a capped block, the wall-side table of every row.
func printRack(cfg server.Config, sc experiments.Scenario, rows []experiments.Row, single bool) error {
	title := "Rack policy comparison"
	if single {
		title = fmt.Sprintf("Rack policy run (%s)", sc.Policy)
	} else if len(sc.WallCapsW) < 2 {
		title += " (uncapped runs only)"
	}
	fmt.Printf("%s: %d servers (ambients %s °C), %.0f min Poisson trace (seed %d)\n\n",
		title, sc.Servers, ambientList(cfg, sc.Servers), sc.Horizon/60, sc.TraceSeed)
	var first []experiments.Row
	for _, r := range rows {
		if r.CapW == rows[0].CapW {
			first = append(first, r)
		}
	}
	if err := experiments.FormatTable(os.Stdout, first, experiments.RackColumns()); err != nil || single {
		return err
	}
	fmt.Println("\nall policies serve the identical job trace; Total(Wh) differences are the")
	fmt.Println("placement's leakage+fan cost — thermally aware policies should be lowest")
	if len(first) == len(rows) {
		return nil
	}
	chain := "ideal (lossless) delivery chain: Wh(AC) == Wh(DC)"
	if sc.PSU != nil && sc.PDU != nil {
		chain = fmt.Sprintf("PSU %.0f%%/%.0fW knee per server + rack PDU %.0f%%/%.0fW knee",
			100*sc.PSU.Eta0, sc.PSU.Knee, 100*sc.PDU.Eta0, sc.PDU.Knee)
	}
	capW := rows[len(rows)-1].CapW
	capNote := fmt.Sprintf("configured %.0f W", capW)
	if sc.WallCapsW[len(sc.WallCapsW)-1] == experiments.AutoCap {
		capNote = fmt.Sprintf("auto: %.0f%% of round-robin's uncapped peak wall = %.0f W",
			100*experiments.AutoCapFraction, capW)
	}
	fmt.Printf("\nWall-side (AC) accounting — %s\nwall budget of the capped runs: %s\n\n", chain, capNote)
	if err := experiments.FormatTable(os.Stdout, rows, experiments.ACColumns()); err != nil {
		return err
	}
	fmt.Println("\nPSU/PDU losses are monotone in load, so every DC watt a placement saves is")
	fmt.Println("amplified at the wall; under the cap, Defer counts placements the runner held")
	fmt.Println("back to keep the predicted wall draw within budget")
	return nil
}

// printFacility renders -facility: the policy × setpoint table and each
// headline policy's sweet spot.
func printFacility(cfg server.Config, sc experiments.Scenario, rows []experiments.Row) error {
	crac := cooling.DefaultCRAC()
	fmt.Printf("Facility sweep: %d servers (ambients %s °C at the %g °C reference supply), "+
		"%.0f min Poisson trace (seed %d), CRAC blower %.0f%% + chiller COP0 %.1f\n\n",
		sc.Servers, ambientList(cfg, sc.Servers), float64(crac.ReferenceC),
		sc.Horizon/60, sc.TraceSeed, 100*crac.BlowerCoeff, cooling.DefaultChiller().COP0)
	if err := experiments.FormatTable(os.Stdout, rows, experiments.FacilityColumns()); err != nil {
		return err
	}
	fmt.Println("\nevery wall watt-hour returns as room heat the CRAC/chiller chain must remove;")
	fmt.Println("a cold aisle overpays the chiller, a warm aisle overpays server fans+leakage")
	for _, p := range []string{"round-robin", "pue-aware"} {
		if sp, wh, err := experiments.FacilitySweetSpot(rows, p); err == nil {
			fmt.Printf("%-12s sweet spot: %g °C supply (%.1f Wh facility)\n", p, sp, wh)
		}
	}
	return nil
}

// printFaults renders -faults: the scenario × policy degradation table.
func printFaults(cfg server.Config, sc experiments.Scenario, rows []experiments.Row) error {
	killPolicy := "killed jobs requeue at the backlog head"
	if sc.DropOnFault {
		killPolicy = "killed jobs are abandoned (DropOnFault)"
	}
	fmt.Printf("Fault catalogue: %d servers (ambients %s °C), %.0f min Poisson trace (seed %d)\n%s\n\n",
		sc.Servers, ambientList(cfg, sc.Servers), sc.Horizon/60, sc.TraceSeed, killPolicy)
	if err := experiments.FormatTable(os.Stdout, rows, experiments.FaultColumns()); err != nil {
		return err
	}
	fmt.Println("\nevery scenario serves the identical job trace; Req/Lost/LostJob(s) are the")
	fmt.Println("disruption bill, Accel/Above75 the reliability bill (Arrhenius vs the 75°C cap),")
	fmt.Println("Surv the slots still placeable at the horizon — schedules are deterministic,")
	fmt.Println("so every cell is reproducible bit-for-bit at any worker count")
	return nil
}

// printRoom renders -room: the two-level policy table.
func printRoom(cfg server.Config, sc experiments.Scenario, rows []experiments.Row) error {
	coupling := "neighbor spill-over matrix"
	if sc.Recirc != nil {
		if sc.Recirc.IsZero() {
			coupling = "uncoupled (zero matrix)"
		} else {
			coupling = fmt.Sprintf("custom %d×%d matrix", sc.Recirc.Size(), sc.Recirc.Size())
		}
	}
	bank := "shared CRAC/chiller bank"
	if len(sc.SetpointsC) == 0 {
		bank = "no shared facility"
	} else if sc.Economizer {
		bank += " + economizer"
	}
	fmt.Printf("Room policy comparison: %d racks × %d servers (ambients %s °C), %s,\n"+
		"recirculation: %s, %.0f min Poisson trace (seed %d)\n\n",
		sc.Racks, sc.Servers, ambientList(cfg, sc.Servers), bank, coupling, sc.Horizon/60, sc.TraceSeed)
	if err := experiments.FormatTable(os.Stdout, rows, experiments.RoomColumns()); err != nil {
		return err
	}
	fmt.Println("\nall policy combos serve the identical job trace; Facility(Wh) is wall energy")
	fmt.Println("plus the shared bank's cooling bill — the recirculation-aware choosers avoid")
	fmt.Println("racks whose exhaust lands back on cold aisles, trimming both terms")
	return nil
}

// figure3 renders the Figure 3 temperature traces, as a chart or as CSV.
func figure3(cfg server.Config, seed int64, csv bool) {
	series, err := experiments.Fig3(cfg, seed, experiments.DefaultEval())
	if err != nil {
		fail(fmt.Errorf("evalctl: %w", err))
	}
	if csv {
		if err := plot.WriteCSV(os.Stdout, series...); err != nil {
			fail(fmt.Errorf("evalctl: %w", err))
		}
		return
	}
	chart := plot.Chart{
		Title:  "Fig 3: Temperature in Test-3 for the three controllers",
		XLabel: "time (min)",
		YLabel: "temperature (°C)",
		Series: series,
	}
	if err := chart.Render(os.Stdout); err != nil {
		fail(fmt.Errorf("evalctl: %w", err))
	}
}

// tableI renders Table I, or one test's rows of it.
func tableI(cfg server.Config, seed int64, testID int) {
	rows, err := experiments.TableI(cfg, seed, experiments.DefaultEval())
	if err != nil {
		fail(fmt.Errorf("evalctl: %w", err))
	}
	if testID != 0 {
		var filtered []experiments.TableIRow
		for _, r := range rows {
			if r.TestID == testID {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) == 0 {
			fail(fmt.Errorf("evalctl: unknown test %d", testID))
		}
		rows = filtered
	}
	fmt.Println("Table I: controller comparison (paper layout)")
	fmt.Printf("idle reference energy: %.4f kWh over %.0f min\n\n",
		experiments.IdleEnergyKWh(cfg, workload.TestDuration), workload.TestDuration/60)
	if err := experiments.FormatTableI(os.Stdout, rows); err != nil {
		fail(fmt.Errorf("evalctl: %w", err))
	}
	fmt.Println("\npaper reference (Table I): LUT net savings 3.9-8.7%, bang-bang 0.05-6.8%,")
	fmt.Println("default max temp 60-62°C, LUT 69-75°C, bang ≤77°C, controller avg ~1900-2200 RPM")
}
