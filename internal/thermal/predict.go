package thermal

import "math"

// This file is the read-only companion of macro.go: the same linearized
// per-step affine map, iterated forward from a caller-supplied anchor to
// *predict* the fixed-dt trajectory without touching node state. It is what
// lets a controller promise "no threshold crossing before t" (the bang-bang
// quiet band, internal/server.BandDecisionHorizon), and what lets the event
// kernel prove a wall-cap deferral ahead (internal/server.DieFloor walks
// it as a floor on the die temperatures) — the prediction runs on
// the identical M = Ad + Phi·C⁻¹·S map the simulation itself will apply, so
// the only divergence from the eventual reference path is the leakage
// curvature over the drift-capped excursion, exactly macro.go's error
// budget.

// PredictLinearized iterates the linearized one-step map up to maxSteps
// times starting from the caller's anchor, without mutating any node
// state. temps holds the anchor temperatures on entry (len NumNodes) and
// is overwritten with the temperatures actually reached; powers must be
// the true injected node powers at the anchor temperatures and slopes the
// per-node dP/dT feedback there (both as StepLinearizedN documents).
// Boundary temperatures and link conductances are read from the network's
// current (synced) state — they are window-constant between scheduling
// events, which is the only regime this is called in.
//
// The walk stops early when the next step would move any node more than
// driftCap from the anchor — the caller re-anchors with fresh powers and
// slopes, mirroring the macro ladder's drift-capped re-linearization — and
// returns the number of steps advanced (0 when the very first step
// breaches the cap, the integrator is not exact, or the propagator cannot
// be built; temps is then unchanged).
//
// hottest, when non-nil, receives the walk's per-step maximum over the
// watch nodes: hottest[s] is the hottest watched temperature after step
// s+1, for every step advanced (len(hottest) must be at least maxSteps).
func (n *Network) PredictLinearized(dt float64, maxSteps int, temps, powers, slopes []float64, driftCap float64, watch []NodeID, hottest []float64) int {
	m := len(n.nodes)
	if dt <= 0 || m == 0 || maxSteps < 1 || n.integrator != IntegratorExact {
		return 0
	}
	if len(temps) != m || len(powers) != m || len(slopes) != m || driftCap <= 0 {
		return 0
	}
	p := n.propagatorFor(dt)
	if p.failed {
		return 0
	}
	// Reuse the macro scratch: predictions and macro steps never interleave
	// mid-call (both run to completion on the goroutine stepping this
	// network) and neither keeps scratch state across calls. The map is
	// anchored at the caller's temps and powers instead of the live node
	// state; an infinite cap runs as one block, as in StepLinearizedN.
	s := &n.macro
	s.size(m)
	n.anchor(p, temps, powers, slopes, math.IsInf(driftCap, 1))
	bp := &n.plan

	copy(s.tn, s.t0)
	steps := 0
	for steps < maxSteps {
		bp.mulVec(s.tc, s.step, s.tn, m)
		ok := true
		for _, sp := range bp.spans {
			for i := sp.lo; i < sp.hi; i++ {
				s.tc[i] += s.c[i]
				if !withinCap(s.tc[i]-s.t0[i], driftCap) {
					ok = false
				}
			}
		}
		if !ok {
			break
		}
		for _, sp := range bp.spans {
			copy(s.tn[sp.lo:sp.hi], s.tc[sp.lo:sp.hi])
		}
		bp.copyTwins(s.tn) // twin rows are current before watch reads them
		if hottest != nil {
			h := s.tn[watch[0]]
			for _, id := range watch[1:] {
				if t := s.tn[id]; t > h {
					h = t
				}
			}
			hottest[steps] = h
		}
		steps++
	}
	if steps > 0 {
		copy(temps, s.tn)
	}
	return steps
}
