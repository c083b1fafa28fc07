package server

import (
	"math"

	"repro/internal/thermal"
	"repro/internal/units"
)

// defaultMacroDriftTolC is the per-macro-step die-temperature movement cap
// when Config.MacroDriftTolC is zero. The leakage model's curvature at
// operating temperatures is ~0.02 W/°C², so re-anchoring the linearization
// every degree keeps the energy deviation from the fixed-dt rectangle sums
// around 3e-7 relative on hour-long traces (measured on the default rack
// trace; it scales linearly with the tolerance) — inside the event
// kernel's 1e-6 equivalence budget with margin to spare.
const defaultMacroDriftTolC = 1.0

// tripGuardC is the margin below CriticalTemp within which macro-stepping
// refuses to collapse steps: the fixed-dt path checks the thermal-trip
// threshold after every step, and a macro window must not be able to skip
// past it. A window's endpoint can move at most the drift tolerance, far
// less than this band.
const tripGuardC = 5

// MacroWindow advances the server through exactly `steps` fixed-dt steps —
// the rack-level macro window — chaining closed-form sub-steps and falling
// back to plain Steps where a sub-window cannot be collapsed. It returns
// the maxima observed at sub-step boundaries for the rack's temperature
// roll-ups.
//
// Between scheduling events the server's inputs are constant: utilization,
// fan command, ambient and therefore active, memory, fan and idle power.
// The only per-step feedback is the temperature-dependent CPU leakage, so
// the fixed-dt trajectory is the repeated application of one affine map
// once leakage is linearized around the current die temperatures. The
// thermal network composes that map in closed form
// (thermal.StepLinearizedN) under a drift cap that bounds the
// linearization error, the DIMM bank collapses its first-order lag exactly
// (mem.StepN), and the energy meters are charged from the closed-form
// temperature sum — the same rectangle rule the fixed-dt path accumulates,
// evaluated at the sub-window's mean hottest-die temperature. The
// window-constant bookkeeping (DIMM lag, fan energy, peak sampling, the
// power breakdown) is deferred to flush points instead of being repeated
// per sub-step, which is what makes a transient-heavy window cheap.
//
// The caller owns controller scheduling: MacroWindow never ticks a fan
// controller, so it must only be asked to span windows every controller
// has promised to stay quiet for (control.HorizonPromiser). A sub-window
// falls back to a plain Step — the exact reference semantics — whenever it
// cannot be collapsed: RK4 integration, slewing fans (the airflow
// conductances move every step), proximity to the thermal-trip threshold,
// or a transient faster than the drift tolerance.
//
// Fault state needs no fallback of its own: a stuck or failed fan, a
// drooping supply or a shifted ambient is one more constant input between
// the edges that change it. A dark machine (SetPowered(false)) collapses
// too. Nothing feeds back on its temperatures, so its linearization has
// zero slopes and is exact, it draws no energy, and its DIMMs relax at
// zero load, as Step's dark branch does.
func (s *Server) MacroWindow(dt float64, steps int) (maxDieC, maxDIMMC, maxInletC float64) {
	maxDieC, maxDIMMC, maxInletC = -1e9, -1e9, -1e9
	fold := func() {
		if t := float64(s.MaxCPUTemp()); t > maxDieC {
			maxDieC = t
		}
	}
	foldSlow := func() { // DIMM/inlet only move at flush boundaries
		if t := float64(s.mem.MaxTemp()); t > maxDIMMC {
			maxDIMMC = t
		}
		if t := float64(s.InletTemp()); t > maxInletC {
			maxInletC = t
		}
	}
	// No window-start fold: the pre-window state was sampled by the rack's
	// previous observation, and the fixed-dt reference only ever samples
	// post-step states — a start fold would see "new load, pre-slew fan"
	// combinations that never exist on the reference path.
	pendingMem := 0
	lastPlain := false
	for done := 0; done < steps; {
		// A macro sub-window needs at least two steps to collapse; don't
		// pay the linearization setup on pinned (single-step) windows.
		if steps-done >= 2 {
			if s.macroEligible() {
				if n := s.stepMacroCore(dt, steps-done); n > 0 {
					done += n
					pendingMem += n
					fold()
					lastPlain = false
					continue
				}
				// Eligible but the doubling ladder refused its first level:
				// a transient faster than the drift cap.
				s.macroStats.PlainDrift++
			} else {
				s.countVetoPlain()
			}
		} else {
			s.macroStats.PlainTail++
		}
		// Plain step: flush the deferred window state first — a slewing fan
		// changes the DIMM equilibrium the deferred steps must not see.
		if pendingMem > 0 {
			s.flushMacro(dt, pendingMem)
			pendingMem = 0
		}
		s.Step(dt)
		done++
		fold()
		foldSlow()
		lastPlain = true
	}
	if lastPlain {
		// The window ended on a plain Step, which left nothing to flush
		// (pendingMem is flushed before every plain step), already ran the
		// trip check, breakdown refresh and peak sample finishMacroWindow
		// would repeat on this exact state, and was sampled by foldSlow. A
		// pinned single-step window therefore costs one plain Step.
		return maxDieC, maxDIMMC, maxInletC
	}
	if pendingMem > 0 {
		s.flushMacro(dt, pendingMem)
	}
	s.finishMacroWindow()
	foldSlow()
	return maxDieC, maxDIMMC, maxInletC
}

// MacroStats is the server's lifetime macro-vs-plain step attribution —
// the per-slot answer to "which pin ate the collapsed steps". Counters are
// plain ints bumped only by the goroutine stepping this server, so they
// are read after the rack fan-out's barrier (rack.MetricsInto) and never
// reset.
type MacroStats struct {
	// Anchors counts successful closed-form sub-windows: each one is a
	// fresh linearization of the leakage feedback around the current die
	// temperatures.
	Anchors int
	// CollapsedSteps is the total fixed-dt steps those anchors absorbed.
	CollapsedSteps int
	// Plain-step fallbacks inside macro windows, split by the veto that
	// forced them (checked in macroEligible's order).
	PlainIntegrator int // RK4 configured: closed form needs the exact map
	PlainSlew       int // fans slewing: conductances move every step
	PlainTripBand   int // within tripGuardC of CriticalTemp
	PlainDrift      int // drift cap rejected the first doubling
	PlainTail       int // odd single-step remainder of a window, no veto
}

// MacroStats returns the lifetime attribution counters.
func (s *Server) MacroStats() MacroStats { return s.macroStats }

// PropagatorStats surfaces the thermal network's propagator-cache and
// drift-ladder counters for the same roll-up.
func (s *Server) PropagatorStats() thermal.PropagatorStats {
	return s.net.PropagatorStats()
}

// countVetoPlain attributes one plain-step fallback to the macroEligible
// veto that caused it, re-checking the conditions in the same order.
func (s *Server) countVetoPlain() {
	switch {
	case s.cfg.ThermalIntegrator != thermal.IntegratorExact:
		s.macroStats.PlainIntegrator++
	case !s.fans.Settled():
		s.macroStats.PlainSlew++
	default:
		s.macroStats.PlainTripBand++
	}
}

// macroEligible reports whether the server's state permits collapsing
// steps at all (cheap checks; the drift cap inside stepMacroCore does the
// quantitative one). A dark machine is always eligible on the exact
// integrator: Step neither slews its fans nor checks it for a trip.
func (s *Server) macroEligible() bool {
	if s.cfg.ThermalIntegrator != thermal.IntegratorExact {
		return false
	}
	if !s.powered {
		return true
	}
	if !s.fans.Settled() {
		return false
	}
	return float64(s.MaxCPUTemp()) < float64(s.cfg.CriticalTemp)-tripGuardC
}

// stepMacroCore attempts one closed-form sub-window: thermal state, clock
// and the total-energy meter advance; DIMM lag, fan energy, peak and
// breakdown refresh are left to flushMacro/finishMacroWindow. 0 means "not
// collapsible here" with all state untouched.
func (s *Server) stepMacroCore(dt float64, maxSteps int) int {
	// Refresh boundary temperature, conductances and injected powers at the
	// anchor temperatures — exactly what a plain step would apply.
	s.syncThermalInputs()
	m := s.net.NumNodes()
	if len(s.macroSlopes) != m {
		s.macroSlopes = make([]float64, m)
		s.macroSums = make([]float64, m)
	}
	for i := range s.macroSlopes {
		s.macroSlopes[i] = 0
	}
	if !s.powered {
		// Dark: no source depends on temperature, so the zero-slope map is
		// the plain step's map itself and needs no drift cap. The machine
		// draws nothing.
		n := s.net.StepLinearizedN(dt, maxSteps, s.macroSlopes, math.Inf(1), s.macroSums)
		if n > 0 {
			s.clock += float64(n) * dt
			s.macroStats.Anchors++
			s.macroStats.CollapsedSteps += n
		}
		return n
	}
	nSockets := float64(len(s.dieNodes))
	lm := s.cfg.Power.Leakage
	for _, die := range s.dieNodes {
		// dPleak/dT = K3·(Pleak − C) for the exponential model: reuse the
		// (memoized) leakage evaluation instead of a second math.Exp.
		leak := s.leakageAt(units.Celsius(s.net.Temp(die)))
		s.macroSlopes[die] = lm.K3 * (leak - lm.C) / nSockets
	}
	tol := s.cfg.MacroDriftTolC
	if tol <= 0 {
		tol = defaultMacroDriftTolC
	}
	if tol > tripGuardC {
		// Never let a configured tolerance outrun the trip guard:
		// macroEligible admits windows starting up to tripGuardC below
		// CriticalTemp, so a drift cap at the guard band keeps a collapsed
		// window's endpoint at or below the threshold the per-step path
		// checks every dt.
		tol = tripGuardC
	}
	n := s.net.StepLinearizedN(dt, maxSteps, s.macroSlopes, tol, s.macroSums)
	if n == 0 {
		return 0
	}
	span := float64(n) * dt

	// Energy: the fixed-dt path charges the post-step breakdown every step.
	// All components except leakage are constant over the window, and
	// leakage is charged at the mean of the hottest die's post-step
	// temperatures (for symmetric socket loads — the dispatcher's uniform
	// spreading — the dies are identical and this is the exact mean; the
	// curvature of the leakage exponential over ≤ tol of drift is the only
	// deviation from the reference sums).
	u := s.cpu.Utilization()
	meanMax := s.macroSums[s.dieNodes[0]]
	for _, die := range s.dieNodes[1:] {
		if v := s.macroSums[die]; v > meanMax {
			meanMax = v
		}
	}
	meanMax /= float64(n)
	constW := float64(s.cfg.Power.IdleFloor) +
		float64(s.cfg.Power.Active.Power(u)) +
		float64(s.cfg.Power.Memory.Power(u)) +
		float64(s.fans.Power())
	leakMean := float64(s.cfg.Power.Leakage.Power(units.Celsius(meanMax)))
	s.energy += units.Joules((constW + leakMean) * span)
	s.clock += span
	s.macroStats.Anchors++
	s.macroStats.CollapsedSteps += n
	return n
}

// flushMacro applies the bookkeeping deferred across n collapsed steps:
// the DIMM first-order lag (exact closed form — conditions were constant
// while the steps were pending) and the separately metered fan energy. A
// dark machine's DIMMs relax at zero load and airflow, and its fans draw
// nothing, as in Step.
func (s *Server) flushMacro(dt float64, n int) {
	if !s.powered {
		s.mem.StepN(dt, n, s.cfg.Ambient, 0, 0)
		return
	}
	s.mem.StepN(dt, n, s.cfg.Ambient, s.cpu.Utilization(), s.fans.MeanRPM())
	s.fanEnergy += units.Energy(s.fans.Power(), float64(n)*dt)
}

// finishMacroWindow mirrors the tail of Step at a window boundary: trip
// check, breakdown refresh, peak sampling. The boundaries are the only
// instants a collapsed sub-window samples, and the hottest die need not
// move monotonically inside one: transients of different time constants
// superpose, so a die still settling from an earlier input change can turn
// back as the slower nodes catch up. A peak inside a sub-window is then
// missed, and the window's temperature and power maxima read low, never
// high. On the rack policy comparisons the hottest die reads at most
// 0.032 °C below fixed-dt's, a bound the experiments' event smoke test
// enforces.
func (s *Server) finishMacroWindow() {
	if s.powered && s.MaxCPUTemp() >= s.cfg.CriticalTemp {
		s.tripped = true
		_, hi := s.fans.Range()
		s.fans.SetAll(hi)
	}
	s.updateBreakdown()
	if total := s.lastBreakdown.Total(); total > s.peak {
		s.peak = total
	}
}
