package server

import (
	"math"

	"repro/internal/thermal"
	"repro/internal/units"
)

// bandLinMarginC pads the die-temperature band against the linearization
// error of the predicted trajectory: each drift-capped anchor segment can
// deviate from the fixed-dt reference by the leakage curvature (~0.02
// W/°C²) over at most the drift tolerance — far below this margin.
const bandLinMarginC = 0.05

// bandMaxAnchors bounds the drift-capped re-linearizations one horizon
// query may spend; a trajectory still drifting after this many anchors is
// a genuine transient the kernel should observe step by step.
const bandMaxAnchors = 64

// BandDecisionHorizon predicts the server's fixed-dt die-temperature
// trajectory and reports how many of the controller's upcoming decision
// instants — the grid steps first, first+stride, first+2·stride, … from
// now — are guaranteed to observe a max CPU temperature inside [lo, hi]
// (either bound may be infinite). It is the thermal half of the bang-bang
// quiet band (control.BandPromiser): a returned m means the first possible
// fan action is the (m+1)-th instant, so the kernel may sleep until then.
//
// The prediction is read-only: it iterates the same linearized propagator
// map the macro kernel applies (thermal.PredictLinearized), re-anchoring
// the leakage linearization under the configured drift tolerance, and
// never touches the live thermal state. The observed-to-die conversion is
// conservative: the band shrinks by the worst sensor offset, a 6σ sensor
// noise allowance, and the linearization margin, and its upper edge is
// clamped below the thermal-trip guard band so a promised window can never
// span a natural trip. Active fault windows do not stop it: their inputs
// are constant between edges like any other. Returns 0 — no promise
// beyond the next instant — for a dark machine (the walk injects a powered
// machine's heat, see fillPredictInputs), whenever the server is not
// macro-eligible (RK4, slewing fans, trip risk), when the band is empty
// after shrinking, or when the trajectory drifts too fast to predict.
func (s *Server) BandDecisionHorizon(dt float64, first, stride, maxChecks int, lo, hi units.Celsius) int {
	if dt <= 0 || first < 1 || stride < 1 || maxChecks < 1 || !s.powered || !s.macroEligible() {
		return 0
	}
	dieLo := math.Inf(-1)
	maxOff := s.cfg.HotSpotOffset
	if s.cfg.EdgeOffset > maxOff {
		maxOff = s.cfg.EdgeOffset
	}
	margin := 6*s.cfg.TempNoise + bandLinMarginC
	if !math.IsInf(float64(lo), -1) {
		dieLo = float64(lo) - maxOff + margin
	}
	dieHi := float64(s.cfg.CriticalTemp) - tripGuardC
	if v := float64(hi) - maxOff - margin; v < dieHi {
		dieHi = v
	}
	if !(dieLo < dieHi) {
		return 0
	}

	tol := s.predictAnchor()
	verified := 0
	reached := 0 // grid steps walked from now
	anchors := 0
	for next := first; verified < maxChecks; next += stride {
		reached += s.predictWalk(dt, next-reached, tol, &anchors, nil)
		if reached < next {
			// The walk ran out of anchors, or a fresh anchor could not
			// advance one step inside the drift cap: a transient too fast
			// to predict. Promise what we have.
			break
		}
		maxDie := s.predTemps[s.dieNodes[0]]
		for _, die := range s.dieNodes[1:] {
			if t := s.predTemps[die]; t > maxDie {
				maxDie = t
			}
		}
		if maxDie < dieLo || maxDie > dieHi {
			break // this instant may act: the promise ends just before it
		}
		verified++
	}
	return verified
}

// predictAnchor starts a read-only trajectory prediction at the live
// state and returns the drift tolerance the walk re-anchors under. The
// boundary temperature and conductances are window-constant, so syncing
// once here pins them for the whole walk.
func (s *Server) predictAnchor() float64 {
	s.syncThermalInputs()
	m := s.net.NumNodes()
	if len(s.predTemps) != m {
		s.predTemps = make([]float64, m)
		s.predPowers = make([]float64, m)
		s.predSlopes = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		s.predTemps[i] = s.net.Temp(thermal.NodeID(i))
	}
	tol := s.cfg.MacroDriftTolC
	if tol <= 0 {
		tol = defaultMacroDriftTolC
	}
	if tol > tripGuardC {
		tol = tripGuardC
	}
	return tol
}

// predictWalk advances the predicted state in predTemps by up to n grid
// steps of the linearized propagator map (thermal.PredictLinearized),
// starting a fresh anchor — powers and leakage slopes re-evaluated at the
// predicted temperatures — at its first step and after every drift stop.
// anchors counts the anchors spent across one query; the walk stops when
// it reaches bandMaxAnchors or a fresh anchor cannot advance one step. It
// returns the steps advanced; hottest, when non-nil, receives the hottest
// predicted die after each of them.
func (s *Server) predictWalk(dt float64, n int, tol float64, anchors *int, hottest []float64) int {
	done := 0
	for done < n && *anchors < bandMaxAnchors {
		*anchors++
		s.fillPredictInputs()
		var h []float64
		if hottest != nil {
			h = hottest[done:]
		}
		adv := s.net.PredictLinearized(dt, n-done, s.predTemps, s.predPowers, s.predSlopes, tol, s.dieNodes, h)
		if adv == 0 {
			break
		}
		done += adv
	}
	return done
}

// DieFloor walks a lower bound on the server's hottest-die temperature
// along the fixed-dt trajectory from the live state, with every input held
// at its current value — the regime between scheduling events. floor[j]
// receives the bound after j+1 grid steps; walk, when non-nil, receives
// the walked hottest die itself, the prediction the floor sits
// bandLinMarginC below. The return value is how many steps were walked (at
// most steps, len(floor) and, when given, len(walk)).
//
// The walk is the linearized propagator map BandDecisionHorizon predicts
// with, and in exact arithmetic it is a floor, not an estimate. The
// leakage curve C + K2·e^{K3·T} is convex for K2, K3 ≥ 0, so every
// tangent the walk linearizes with lies below it and rises with
// temperature. The exact
// propagator's Ad and Phi·C⁻¹ are elementwise nonnegative (the RC network
// is a cooperative system), so a step map fed a lower temperature and a
// lower source power lands lower. By induction on the steps — the
// comparison principle for cooperative systems (H. L. Smith, Monotone
// Dynamical Systems, AMS 1995) — each walked die temperature bounds the
// plain Step trajectory's from below. The first walked step is the plain
// step itself, up to rounding, so each reported floor sits bandLinMarginC
// below the walk to keep the bound in floating point. As a prediction the
// walk carries the linearization error of the drift-capped anchors, the
// same error every macro window's endpoint carries.
//
// It walks nothing (returns 0) when that argument or the live state does
// not support it: a non-exact integrator, a dark machine, slewing fans
// (conductances move every step), a negative leakage K2 or K3, or a die
// inside the trip-guard band (a trip would change the fan command).
// Active fault windows do not stop it: their inputs are constant between
// edges like any other. Like BandDecisionHorizon it never touches the live
// thermal state.
func (s *Server) DieFloor(dt float64, steps int, floor, walk []float64) int {
	lm := s.cfg.Power.Leakage
	if dt <= 0 || steps < 1 || len(floor) < steps || (walk != nil && len(walk) < steps) ||
		lm.K2 < 0 || lm.K3 < 0 ||
		s.cfg.ThermalIntegrator != thermal.IntegratorExact || !s.powered || !s.fans.Settled() ||
		float64(s.MaxCPUTemp()) >= float64(s.cfg.CriticalTemp)-tripGuardC {
		return 0
	}
	tol := s.predictAnchor()
	anchors := 0
	n := s.predictWalk(dt, steps, tol, &anchors, floor)
	if walk != nil {
		copy(walk, floor[:n])
	}
	for j := range floor[:n] {
		floor[j] -= bandLinMarginC
	}
	return n
}

// DCAtDie returns the server's DC draw at an instant before its next input
// change at which its hottest die sits at dieC: every term but leakage is
// window-constant (utilization, settled fans), and leakage is
// read at the hottest die, as Step's breakdown reads it. Leakage rises
// with the die temperature, so a DieFloor bound gives a DC floor, and a
// walked die the predicted draw. A dark machine draws nothing.
func (s *Server) DCAtDie(dieC float64) float64 {
	if !s.powered {
		return 0
	}
	return float64(s.breakdownAt(float64(s.cfg.Power.Leakage.Power(units.Celsius(dieC)))).Total())
}

// fillPredictInputs computes the injected node powers and leakage feedback
// slopes at the *predicted* die temperatures in predTemps — the prediction
// twin of syncThermalInputs + stepMacroCore's slope pass, evaluated on the
// model directly (anchor temperatures are hypothetical, so the live memo
// must not be polluted). Sink nodes inject nothing; utilization and fan
// speed are window-constant by the promise contract.
func (s *Server) fillPredictInputs() {
	for i := range s.predPowers {
		s.predPowers[i] = 0
		s.predSlopes[i] = 0
	}
	nSockets := float64(len(s.dieNodes))
	lm := s.cfg.Power.Leakage
	for i, die := range s.dieNodes {
		sockU, _ := s.cpu.SocketUtilization(i)
		active := float64(s.cfg.Power.Active.Power(sockU)) / nSockets
		leak := float64(lm.Power(units.Celsius(s.predTemps[die])))
		s.predPowers[die] = active + leak/nSockets
		s.predSlopes[die] = lm.K3 * (leak - lm.C) / nSockets
	}
}
