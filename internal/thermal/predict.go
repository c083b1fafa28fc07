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
// returns the number of steps advanced. It returns 0, with temps
// unchanged, when the very first step breaches the cap, the integrator is
// not exact, the propagator cannot be built, the network's blocks are not
// all pairs, or an input or result is not finite.
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
	if n.plan.refresh(n); !n.plan.pairs {
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
	// state.
	s := &n.macro
	s.size(m)
	n.anchor(p, temps, powers, slopes)
	steps, top := n.walkPairs(p, maxSteps, driftCap, watch, hottest)
	if steps == 0 {
		return 0
	}
	if top > steps {
		// A breach on any node ends every pair's walk: re-walk the pairs
		// that went further to the common step.
		n.walkPairs(p, steps, driftCap, nil, nil)
	}
	if !finite(s.tn) {
		return 0
	}
	copy(temps, s.tn)
	return steps
}

// walkPairs walks every pair the call computes, none past limit steps or
// the fewest steps an earlier pair walked, and copies each twin pair's
// temperatures from its source. It returns the fewest and most steps
// walked.
func (n *Network) walkPairs(p *propagator, limit int, driftCap float64, watch []NodeID, hottest []float64) (steps, top int) {
	s := &n.macro
	steps = limit
	first := true
	for b, from := range s.from {
		lo := 2 * b
		if from != lo {
			s.tn[lo], s.tn[lo+1] = s.tn[from], s.tn[from+1]
			continue
		}
		got := n.walk(p, lo, steps, driftCap, watch, hottest, first)
		first = false
		steps, top = min(steps, got), max(top, got)
	}
	return steps, top
}

// walk iterates the one-step map on the pair [lo, lo+2) for at most limit
// steps, stopping before the first step that leaves the drift cap, stores
// the temperatures reached into the scratch's tn, and returns the steps
// walked. With hottest non-nil it folds the watch nodes this pair provides
// (its own and its twins', entry id&1) into hottest after each step,
// overwriting it when first. A walked value is never −0 (a dot product
// from +0 plus c) and, once committed, finite, so the maximum's bits do
// not depend on the fold order: pair by pair gives what watch order gives.
func (n *Network) walk(p *propagator, lo, limit int, driftCap float64, watch []NodeID, hottest []float64, first bool) int {
	s := &n.macro
	m00, m01, m10, m11, c0, c1 := n.pairMap(p, lo)
	t0, t1 := s.t0[lo], s.t0[lo+1]
	x0, x1 := t0, t1
	steps := 0
	for steps < limit {
		e0 := 0 + m00*x0 + m01*x1 + c0
		e1 := 0 + m10*x0 + m11*x1 + c1
		if !withinCap(e0-t0, driftCap) || !withinCap(e1-t1, driftCap) {
			break
		}
		x0, x1 = e0, e1
		if hottest != nil {
			h := math.Inf(-1)
			for _, id := range watch {
				if s.from[id>>1] == lo {
					t := x0
					if id&1 != 0 {
						t = x1
					}
					if t > h {
						h = t
					}
				}
			}
			if first || h > hottest[steps] {
				hottest[steps] = h
			}
		}
		steps++
	}
	s.tn[lo], s.tn[lo+1] = x0, x1
	return steps
}
