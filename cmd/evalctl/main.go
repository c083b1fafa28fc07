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
//	evalctl -csv            # Fig 3 traces as CSV
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

// runRackCheckpointed executes the crash-safe single-policy rack run: an
// optional resume from a snapshot file, periodic checkpoints at the
// -ckevery cadence (each an atomic file replace, so a crash mid-write
// keeps the previous one), and a SIGINT handler that stops the run at its
// next decision-step boundary, writes the interrupt-instant checkpoint,
// and prints the resume command. Resuming then continuing to the horizon
// is byte-identical to the run that was never interrupted.
func runRackCheckpointed(cfg server.Config, ev experiments.RackEval, ckptFile string, ckptEvery float64, resumeFile string, capW float64, reg *obs.Registry, metrics bool) {
	if capW < 0 {
		capW = 0 // the AC table's "uncapped only" spelling: one uncapped run
	}
	ev.WallCapW = capW
	if resumeFile != "" {
		var ck sched.Checkpoint
		if err := snap.DecodeFile(resumeFile, &ck); err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		ev.Resume = &ck
		// stderr, so a resumed run's stdout stays byte-identical to the
		// uninterrupted run's — the property the CI smoke diffs on.
		fmt.Fprintf(os.Stderr, "resuming %s from %s: step %d/%d (t=%.0f s)\n",
			ev.Policy, resumeFile, ck.K, ck.Steps, float64(ck.K)*ck.Dt)
	}
	if ckptFile != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		ev.Ctx = ctx
		ev.CheckpointEvery = ckptEvery
		ev.CheckpointSink = func(ck sched.Checkpoint) error {
			if err := snap.EncodeFile(ckptFile, ck); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "checkpoint: step %d/%d -> %s\n", ck.K, ck.Steps, ckptFile)
			return nil
		}
	}
	rows, err := experiments.RackPolicyComparison(cfg, ev)
	if err != nil {
		var c *sched.Cancelled
		if errors.As(err, &c) && ckptFile != "" {
			if werr := snap.EncodeFile(ckptFile, c.Checkpoint); werr != nil {
				fmt.Fprintln(os.Stderr, "evalctl: writing interrupt checkpoint:", werr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "\nevalctl: interrupted at step %d/%d; checkpoint written to %s\n",
				c.Checkpoint.K, c.Checkpoint.Steps, ckptFile)
			fmt.Fprintf(os.Stderr, "resume with: evalctl -rack -policy %s -resume %s (plus this run's other flags)\n",
				ev.Policy, ckptFile)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "evalctl:", err)
		os.Exit(1)
	}
	fmt.Printf("Rack policy run (%s): %d servers (ambients %s °C), "+
		"%.0f min Poisson trace (seed %d)\n\n",
		ev.Policy, ev.Servers, ambientList(cfg, ev.Servers), ev.Horizon/60, ev.TraceSeed)
	if err := experiments.FormatRackTable(os.Stdout, rows); err != nil {
		fmt.Fprintln(os.Stderr, "evalctl:", err)
		os.Exit(1)
	}
	if metrics {
		printMetrics(os.Stdout, reg)
	}
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

func main() {
	fig3 := flag.Bool("fig3", false, "emit Figure 3 temperature traces for Test-3")
	testID := flag.Int("test", 0, "run a single test id 1-4 (0 = all)")
	seed := flag.Int64("seed", 42, "seed for the stochastic workloads")
	csv := flag.Bool("csv", false, "CSV output for -fig3")
	rackCmp := flag.Bool("rack", false, "run the rack-scale placement-policy comparison")
	roomCmp := flag.Bool("room", false, "run the room-scale two-level placement comparison (N racks behind one CRAC bank)")
	racks := flag.Int("racks", 0, "room size in racks for -room (0 = default)")
	recircFile := flag.String("recirc", "", "for -room: load the recirculation matrix from a file (rows of weights; '#' comments)")
	noRecirc := flag.Bool("norecirc", false, "for -room: zero recirculation matrix (uncoupled racks)")
	noFacility := flag.Bool("nofacility", false, "for -room: drop the shared CRAC bank (cooling exactly zero, PUE exactly 1)")
	econ := flag.Bool("econ", false, "for -room: fit the water-side economizer to the shared bank")
	facilityCmp := flag.Bool("facility", false, "run the policy × cold-aisle-setpoint facility sweep")
	faultCmp := flag.Bool("faults", false, "run the fault-scenario × policy degradation catalogue")
	dropOnFault := flag.Bool("drop", false, "for -faults: abandon killed jobs instead of requeueing them")
	setpoints := flag.String("setpoints", "", "comma-separated supply setpoints in °C for -facility (default 14,21,28)")
	servers := flag.Int("servers", 0, "rack size for -rack/-facility/-faults/-room (0 = default)")
	horizon := flag.Float64("horizon", 0, "measured window in seconds for -rack/-facility/-faults/-room (0 = default)")
	capW := flag.Float64("cap", 0, "wall-power budget in W (-rack: 0 = auto, negative = uncapped runs only; -facility: 0 = uncapped)")
	policyFlag := flag.String("policy", "",
		"for -rack/-room: restrict the comparison to one placement policy by name "+
			"(-rack: round-robin, least-utilized, coolest-first, leakage-aware, cap-aware; "+
			"-room: rr, least-loaded, coolest, min-cost, recirc-aware, recirc-pue); useful with "+
			"-metrics, whose registry otherwise aggregates every policy's run into one dump")
	ideal := flag.Bool("ideal", false, "lossless delivery chain for -rack/-facility: no PSU/PDU, wall == DC")
	lutCache := flag.String("lutcache", "", "directory for the cross-process LUT disk cache")
	eventStep := flag.Bool("eventstep", false,
		"event-driven trace kernel for -rack/-facility/-faults/-room: advance the racks per scheduling "+
			"event instead of per fixed dt (several-fold faster; energies within 1e-6 of the fixed-dt reference)")
	rate := flag.Float64("rate", 0,
		"job arrival rate in jobs/s for -rack/-facility/-faults/-room (0 = experiment default; raise it "+
			"well past capacity for a saturated backlog)")
	backfill := flag.Bool("backfill", false,
		"for -rack/-facility/-faults: let jobs queued behind a blocked head place out of order "+
			"(FIFO backfill pass under the same cap admission; the head keeps strict priority)")
	fanCtl := flag.String("fanctl", "",
		"fan controller for -rack/-facility/-faults/-room: lut (default) or bang (the Section V reactive policy)")
	metricsFlag := flag.Bool("metrics", false,
		"for -rack/-facility/-faults/-room: attach a run-metrics registry (internal/obs) and print the "+
			"pin-reason breakdown plus the full sorted counter dump after the tables")
	debugAddr := flag.String("debugaddr", "",
		"host:port serving /metrics (Prometheus text format of the live run-metrics registry) and "+
			"/debug/pprof for the duration of the run, e.g. localhost:6060")
	ckptFile := flag.String("checkpoint", "",
		"for -rack with -policy: write periodic run checkpoints to this file (atomic replace, see "+
			"-ckevery) and, on SIGINT, capture the interrupt-instant checkpoint there before exiting; "+
			"resume later with -resume")
	ckptEvery := flag.Float64("ckevery", 60,
		"simulated seconds between periodic checkpoints for -checkpoint")
	resumeFile := flag.String("resume", "",
		"for -rack with -policy: resume the run from a checkpoint file written by -checkpoint "+
			"(the eval flags must match the interrupted run's)")
	flag.Parse()
	for _, err := range []error{checkSize("horizon", *horizon), checkSize("rate", *rate),
		checkSize("servers", float64(*servers)), checkSize("racks", float64(*racks))} {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	cfg := server.T3Config()
	ec := experiments.DefaultEval()

	if (*ckptFile != "" || *resumeFile != "") && (!*rackCmp || *policyFlag == "") {
		fmt.Fprintln(os.Stderr, "evalctl: -checkpoint/-resume capture exactly one run; combine them with -rack and a single -policy")
		os.Exit(1)
	}

	// One registry is shared by every run of the selected experiment; the
	// HTTP surface serves it live while the runs are still in flight.
	var reg *obs.Registry
	if *metricsFlag || *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	if *debugAddr != "" {
		hostport, err := serveDebug(*debugAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("debug server: http://%s/metrics and http://%s/debug/pprof/\n", hostport, hostport)
	}

	if *facilityCmp {
		fe := experiments.DefaultFacilityEval()
		fe.Rack.TraceSeed = *seed
		if *servers > 0 {
			fe.Rack.Servers = *servers
		}
		if *horizon > 0 {
			fe.Rack.Horizon = *horizon
		}
		fe.Rack.WallCapW = *capW
		fe.Rack.LUTCacheDir = *lutCache
		fe.Rack.EventStepping = *eventStep
		fe.Rack.Backfill = *backfill
		fe.Rack.FanControl = *fanCtl
		fe.Rack.Metrics = reg
		if *rate > 0 {
			fe.Rack.Rate = *rate
		}
		if *ideal {
			fe.Rack.PSU, fe.Rack.PDU = nil, nil
		}
		if *setpoints != "" {
			var sps []units.Celsius
			for _, tok := range strings.Split(*setpoints, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
				if err != nil {
					fmt.Fprintf(os.Stderr, "evalctl: bad -setpoints entry %q: %v\n", tok, err)
					os.Exit(1)
				}
				sps = append(sps, units.Celsius(v))
			}
			fe.SetpointsC = sps
		}
		rows, err := experiments.RackFacilityComparison(cfg, fe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		fmt.Printf("Facility sweep: %d servers (ambients %s °C at the %g °C reference supply), "+
			"%.0f min Poisson trace (seed %d), CRAC blower %.0f%% + chiller COP0 %.1f\n\n",
			fe.Rack.Servers, ambientList(cfg, fe.Rack.Servers), float64(fe.CRAC.ReferenceC),
			fe.Rack.Horizon/60, fe.Rack.TraceSeed, 100*fe.CRAC.BlowerCoeff, fe.Chiller.COP0)
		if err := experiments.FormatRackFacilityTable(os.Stdout, rows); err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		fmt.Println("\nevery wall watt-hour returns as room heat the CRAC/chiller chain must remove;")
		fmt.Println("a cold aisle overpays the chiller, a warm aisle overpays server fans+leakage")
		for _, p := range []string{"round-robin", "pue-aware"} {
			if sp, wh, err := experiments.FacilitySweetSpot(rows, p); err == nil {
				fmt.Printf("%-12s sweet spot: %g °C supply (%.1f Wh facility)\n", p, sp, wh)
			}
		}
		if *metricsFlag {
			printMetrics(os.Stdout, reg)
		}
		return
	}

	if *faultCmp {
		fe := experiments.DefaultFaultEval()
		fe.Rack.TraceSeed = *seed
		if *servers > 0 {
			fe.Rack.Servers = *servers
		}
		if *horizon > 0 {
			fe.Rack.Horizon = *horizon
		}
		fe.Rack.WallCapW = *capW
		fe.Rack.LUTCacheDir = *lutCache
		fe.Rack.EventStepping = *eventStep
		fe.Rack.Backfill = *backfill
		fe.Rack.FanControl = *fanCtl
		fe.Rack.Metrics = reg
		if *rate > 0 {
			fe.Rack.Rate = *rate
		}
		if *ideal {
			fe.Rack.PSU, fe.Rack.PDU = nil, nil
		}
		fe.DropOnFault = *dropOnFault
		rows, err := experiments.RackFaultComparison(cfg, fe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		killPolicy := "killed jobs requeue at the backlog head"
		if fe.DropOnFault {
			killPolicy = "killed jobs are abandoned (DropOnFault)"
		}
		fmt.Printf("Fault catalogue: %d servers (ambients %s °C), %.0f min Poisson trace (seed %d)\n%s\n\n",
			fe.Rack.Servers, ambientList(cfg, fe.Rack.Servers), fe.Rack.Horizon/60, fe.Rack.TraceSeed, killPolicy)
		if err := experiments.FormatRackFaultTable(os.Stdout, rows); err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		fmt.Println("\nevery scenario serves the identical job trace; Req/Lost/LostJob(s) are the")
		fmt.Println("disruption bill, Accel/Above75 the reliability bill (Arrhenius vs the 75°C cap),")
		fmt.Println("Surv the slots still placeable at the horizon — schedules are deterministic,")
		fmt.Println("so every cell is reproducible bit-for-bit at any worker count")
		if *metricsFlag {
			printMetrics(os.Stdout, reg)
		}
		return
	}

	if *roomCmp {
		ev := experiments.DefaultRoomEval()
		ev.TraceSeed = *seed
		if *racks > 0 {
			ev.Racks = *racks
		}
		if *servers > 0 {
			ev.Servers = *servers
		}
		if *horizon > 0 {
			ev.Horizon = *horizon
		}
		ev.LUTCacheDir = *lutCache
		ev.EventStepping = *eventStep
		ev.FanControl = *fanCtl
		ev.Metrics = reg
		ev.Policy = *policyFlag
		ev.NoFacility = *noFacility
		ev.Economizer = *econ
		if *rate > 0 {
			ev.Rate = *rate
		}
		if *noRecirc {
			ev.Recirc = room.NewMatrix(ev.Racks)
		}
		if *recircFile != "" {
			data, err := os.ReadFile(*recircFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "evalctl:", err)
				os.Exit(1)
			}
			m, err := room.ParseMatrix(data)
			if err != nil {
				fmt.Fprintln(os.Stderr, "evalctl:", err)
				os.Exit(1)
			}
			ev.Recirc = m
		}
		rows, err := experiments.RoomPolicyComparison(cfg, ev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		coupling := "neighbor spill-over matrix"
		if ev.Recirc != nil {
			if ev.Recirc.IsZero() {
				coupling = "uncoupled (zero matrix)"
			} else {
				coupling = fmt.Sprintf("custom %d×%d matrix", ev.Recirc.Size(), ev.Recirc.Size())
			}
		}
		bank := "shared CRAC/chiller bank"
		if ev.NoFacility {
			bank = "no shared facility"
		} else if ev.Economizer {
			bank += " + economizer"
		}
		fmt.Printf("Room policy comparison: %d racks × %d servers (ambients %s °C), %s,\n"+
			"recirculation: %s, %.0f min Poisson trace (seed %d)\n\n",
			ev.Racks, ev.Servers, ambientList(cfg, ev.Servers), bank, coupling, ev.Horizon/60, ev.TraceSeed)
		if err := experiments.FormatRoomTable(os.Stdout, rows); err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		fmt.Println("\nall policy combos serve the identical job trace; Facility(Wh) is wall energy")
		fmt.Println("plus the shared bank's cooling bill — the recirculation-aware choosers avoid")
		fmt.Println("racks whose exhaust lands back on cold aisles, trimming both terms")
		if *metricsFlag {
			printMetrics(os.Stdout, reg)
		}
		return
	}

	if *rackCmp {
		ev := experiments.DefaultRackEval()
		ev.TraceSeed = *seed
		if *servers > 0 {
			ev.Servers = *servers
		}
		if *horizon > 0 {
			ev.Horizon = *horizon
		}
		ev.WallCapW = *capW
		ev.LUTCacheDir = *lutCache
		ev.EventStepping = *eventStep
		ev.Backfill = *backfill
		ev.FanControl = *fanCtl
		ev.Metrics = reg
		if *rate > 0 {
			ev.Rate = *rate
		}
		if !*ideal {
			psu, pdu := power.DefaultPSU(), power.DefaultPDU()
			ev.PSU, ev.PDU = &psu, &pdu
		}
		ev.Policy = *policyFlag
		if *ckptFile != "" || *resumeFile != "" {
			runRackCheckpointed(cfg, ev, *ckptFile, *ckptEvery, *resumeFile, *capW, reg, *metricsFlag)
			return
		}
		if *capW < 0 {
			// Uncapped runs only: the -metrics registry aggregates every
			// run it instruments, so skipping the capped half — typically
			// together with -policy — makes the pin shares of one trace
			// readable.
			ev.WallCapW = 0
			rows, err := experiments.RackPolicyComparison(cfg, ev)
			if err != nil {
				fmt.Fprintln(os.Stderr, "evalctl:", err)
				os.Exit(1)
			}
			fmt.Printf("Rack policy comparison (uncapped runs only): %d servers (ambients %s °C), "+
				"%.0f min Poisson trace (seed %d)\n\n",
				ev.Servers, ambientList(cfg, ev.Servers), ev.Horizon/60, ev.TraceSeed)
			if err := experiments.FormatRackTable(os.Stdout, rows); err != nil {
				fmt.Fprintln(os.Stderr, "evalctl:", err)
				os.Exit(1)
			}
			fmt.Println("\nall policies serve the identical job trace; Total(Wh) differences are the")
			fmt.Println("placement's leakage+fan cost — thermally aware policies should be lowest")
			if *metricsFlag {
				printMetrics(os.Stdout, reg)
			}
			return
		}
		res, err := experiments.RackACComparison(cfg, ev)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		fmt.Printf("Rack policy comparison: %d servers (ambients %s °C), "+
			"%.0f min Poisson trace (seed %d)\n\n",
			ev.Servers, ambientList(cfg, ev.Servers), ev.Horizon/60, ev.TraceSeed)
		if err := experiments.FormatRackTable(os.Stdout, res.Uncapped); err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		fmt.Println("\nall policies serve the identical job trace; Total(Wh) differences are the")
		fmt.Println("placement's leakage+fan cost — thermally aware policies should be lowest")

		chain := "ideal (lossless) delivery chain: Wh(AC) == Wh(DC)"
		if ev.PSU != nil && ev.PDU != nil {
			chain = fmt.Sprintf("PSU %.0f%%/%.0fW knee per server + rack PDU %.0f%%/%.0fW knee",
				100*ev.PSU.Eta0, ev.PSU.Knee, 100*ev.PDU.Eta0, ev.PDU.Knee)
		}
		capNote := fmt.Sprintf("configured %.0f W", res.CapW)
		if res.AutoCap {
			capNote = fmt.Sprintf("auto: %.0f%% of round-robin's uncapped peak wall = %.0f W",
				100*experiments.AutoCapFraction, res.CapW)
		}
		fmt.Printf("\nWall-side (AC) accounting — %s\nwall budget of the capped runs: %s\n\n", chain, capNote)
		if err := experiments.FormatRackACTable(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		fmt.Println("\nPSU/PDU losses are monotone in load, so every DC watt a placement saves is")
		fmt.Println("amplified at the wall; under the cap, Defer counts placements the runner held")
		fmt.Println("back to keep the predicted wall draw within budget")
		if *metricsFlag {
			printMetrics(os.Stdout, reg)
		}
		return
	}

	if *metricsFlag {
		fmt.Fprintln(os.Stderr, "evalctl: -metrics instruments the rack and room experiments; combine it with -rack, -facility, -faults or -room")
	}

	if *fig3 {
		series, err := experiments.Fig3(cfg, *seed, ec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		if *csv {
			if err := plot.WriteCSV(os.Stdout, series...); err != nil {
				fmt.Fprintln(os.Stderr, "evalctl:", err)
				os.Exit(1)
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
			fmt.Fprintln(os.Stderr, "evalctl:", err)
			os.Exit(1)
		}
		return
	}

	rows, err := experiments.TableI(cfg, *seed, ec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evalctl:", err)
		os.Exit(1)
	}
	if *testID != 0 {
		var filtered []experiments.TableIRow
		for _, r := range rows {
			if r.TestID == *testID {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "evalctl: unknown test %d\n", *testID)
			os.Exit(1)
		}
		rows = filtered
	}

	fmt.Println("Table I: controller comparison (paper layout)")
	fmt.Printf("idle reference energy: %.4f kWh over %.0f min\n\n",
		experiments.IdleEnergyKWh(cfg, workload.TestDuration), workload.TestDuration/60)
	if err := experiments.FormatTableI(os.Stdout, rows); err != nil {
		fmt.Fprintln(os.Stderr, "evalctl:", err)
		os.Exit(1)
	}
	fmt.Println("\npaper reference (Table I): LUT net savings 3.9-8.7%, bang-bang 0.05-6.8%,")
	fmt.Println("default max temp 60-62°C, LUT 69-75°C, bang ≤77°C, controller avg ~1900-2200 RPM")
}
