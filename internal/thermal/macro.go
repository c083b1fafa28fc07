package thermal

import "math"

// This file implements the closed-form composition of many exact-propagator
// steps — the thermal half of the event-driven macro-stepping kernel
// (internal/sched). Between scheduling events the rack's inputs are
// piecewise constant, so the fixed-dt reference path applies the same
// affine map over and over:
//
//	T_{k+1} = Ad·T_k + Phi·C⁻¹·(P + S·T_k + Σ g_b·T_b)
//	        = M·T_k + c,   M = Ad + Phi·C⁻¹·S,   c = Phi·C⁻¹·(P − S·T₀ + Σ g_b·T_b)
//
// where S carries the per-node feedback slopes of the temperature-dependent
// heat sources (CPU leakage, linearized by the caller around the current
// temperatures T₀; P is the true injected power at T₀, so the map is exact
// at the anchor). K applications collapse into
//
//	T_K       = M^K·T₀ + G_K·c,          G_K = Σ_{j<K} M^j
//	Σ_{k≤K} T_k = (M·G_K)·T₀ + H_K·c,    H_K = Σ_{k≤K} G_k = Σ_{j<K}(K−j)·M^j
//
// computed by doubling (A_{2K} = A_K², G_{2K} = G_K + A_K·G_K, H_{2K} =
// H_K + K·G_K + A_K·H_K) in O(log K) small multiplies. M and every A_K are
// block-diagonal (see "Block structure" in doc.go), so each product runs
// per block on in-block entries, a block twin of an earlier one is copied
// rather than computed, and a level's four matrix–vector products
// (A_K·T_K, A_K·H_K·c, A_K·G_K·c, A_K·G_K·T₀) share one pass over A_K's
// rows. The running temperature sum is what turns the fixed-dt
// rectangle-rule energy accounting into a closed form: the caller charges
// K·dt·P(ΣT/K) instead of K separate post-step evaluations. Because the composition reproduces the
// *discrete* fixed-dt trajectory — not the continuous-time integral — the
// only deviation from the reference path is the curvature of the leakage
// model over the window's temperature excursion, which the drift cap
// bounds.

// macroScratch holds the m×m and m-vector work buffers of StepLinearizedN
// and PredictLinearized, reused across calls so macro-stepping does not
// allocate at steady state. Matrices are m×m row-major, and only the
// in-block entries of the call's computed blocks are ever written or read.
//
// Only the running power A_n = M^n must be kept as a matrix (it multiplies
// fresh vectors at every level); the geometric sums appear exclusively
// applied to the two fixed vectors c and T₀, so they ride along as the
// vector ladders g_n = G_n·c, y_n = G_n·T₀ and h_n = H_n·c — one matrix
// multiply per doubling instead of three, and one pass over A_n's rows for
// the level's four matrix–vector products.
type macroScratch struct {
	m          int
	step       []float64 // M, the one-step linearized map
	a, a2      []float64 // A_n = M^n and its squaring scratch
	c          []float64 // affine term of the per-step map
	v, u       []float64 // anchor inputs S/C and C⁻¹·(P − S·T₀ + Σ g_b·T_b)
	t0, tn, tc []float64 // start temps, current endpoint, candidate
	g, y, h    []float64 // vector ladders G_n·c, G_n·T₀, H_n·c
	ag, ay, ah []float64 // A_n·g_n, A_n·y_n, A_n·h_n of the level being tried
}

func (s *macroScratch) size(m int) {
	if s.m == m {
		return
	}
	s.m = m
	s.step = make([]float64, m*m)
	s.a = make([]float64, m*m)
	s.a2 = make([]float64, m*m)
	vs := make([]float64, 12*m)
	for i, v := range []*[]float64{&s.c, &s.v, &s.u, &s.t0, &s.tn, &s.tc, &s.g, &s.y, &s.h, &s.ag, &s.ay, &s.ah} {
		*v = vs[i*m : (i+1)*m : (i+1)*m]
	}
}

// anchor assembles the per-step affine map at the anchor temps (copied to
// t0), powers (which may be the u scratch itself) and slopes: v = S/C and
// u = C⁻¹·(P − S·T₀ + Σ g_b·T_b) for every node, exactly the way stepExact
// assembles its per-step input; then it plans the call on (v, u, T₀) and
// fills M = Ad + Phi·diag(v) and c = Phi·u over the computed blocks. whole
// plans one block (planCall). StepLinearizedN and PredictLinearized both
// anchor here.
func (n *Network) anchor(p *propagator, temps, powers, slopes []float64, whole bool) {
	s, m := &n.macro, p.m
	for i := range n.nodes {
		s.v[i] = slopes[i] / n.nodes[i].capac
		s.t0[i] = temps[i]
		s.u[i] = powers[i] - slopes[i]*temps[i]
	}
	for _, l := range n.links {
		if l.toBoundary {
			s.u[l.a] += l.g * n.boundaries[l.bBound].temp
		}
	}
	for i := range s.u {
		s.u[i] /= n.nodes[i].capac
	}
	n.planCall(p, whole, s.v, s.u, s.t0)
	for _, sp := range n.plan.spans {
		v, u := s.v[sp.lo:sp.hi], s.u[sp.lo:sp.hi]
		for i := sp.lo; i < sp.hi; i++ {
			ad := p.ad[i*m+sp.lo : i*m+sp.hi]
			phi := p.phi[i*m+sp.lo : i*m+sp.hi]
			mi := s.step[i*m+sp.lo : i*m+sp.hi]
			c := 0.0
			for j := range ad {
				mi[j] = ad[j] + phi[j]*v[j]
				c += phi[j] * u[j]
			}
			s.c[i] = c
		}
	}
}

// StepLinearizedN advances the network by n applications of the per-step
// affine map above, choosing the largest power-of-two n ≤ maxSteps whose
// endpoint stays within driftCap of the start temperatures (per node, °C).
// slopes[i] is node i's heat-source feedback dP/dT in W/°C (zero for nodes
// without temperature-dependent sources); the node powers set via SetPower
// must be the true injected powers at the current temperatures, so the
// linearization is exact at the anchor. On success it updates the node
// temperatures to T_n, stores Σ_{k=1..n} T_k into sums (len NumNodes) for
// closed-form energy accounting, and returns n ≥ 2. It returns 0 — leaving
// all state untouched — when no multi-step window is admissible: maxSteps
// < 2, a non-exact integrator, an unbuildable propagator, or a first
// doubling already beyond the drift cap (fast transients and thermal
// runaway both land here); the caller then falls back to plain Step, which
// is the exact fixed-dt semantics.
func (n *Network) StepLinearizedN(dt float64, maxSteps int, slopes []float64, driftCap float64, sums []float64) int {
	m := len(n.nodes)
	if dt <= 0 || m == 0 || maxSteps < 2 || n.integrator != IntegratorExact {
		return 0
	}
	if len(slopes) != m || len(sums) != m || driftCap <= 0 {
		return 0
	}
	p := n.propagatorFor(dt)
	if p.failed {
		return 0
	}
	s := &n.macro
	s.size(m)
	for i := range n.nodes {
		s.t0[i] = n.nodes[i].temp
		s.u[i] = n.nodes[i].powerIn
	}
	// An infinite cap lets a diverging ladder commit ±Inf, which the dense
	// product would spread across blocks as NaN: run such calls as one block.
	n.anchor(p, s.t0, s.u, slopes, math.IsInf(driftCap, 1))
	bp := &n.plan

	// Ladder start: n = 1 — A = M, g = c, y = T₀, h = c, T₁ = M·T₀ + c.
	copy(s.a, s.step)
	copy(s.g, s.c)
	copy(s.y, s.t0)
	copy(s.h, s.c)
	bp.mulVec(s.tn, s.step, s.t0, m)
	for _, sp := range bp.spans {
		for i := sp.lo; i < sp.hi; i++ {
			s.tn[i] += s.c[i]
		}
	}
	steps := 1
	for 2*steps <= maxSteps {
		// One pass over A_n's rows: the candidate endpoint
		// T_{2n} = A_n·T_n + g_n, drift-checked before the level is
		// committed, and the products A_n·h_n, A_n·g_n, A_n·y_n the vector
		// ladders need if it is.
		ok := true
		for _, sp := range bp.spans {
			tn, g, y, h := s.tn[sp.lo:sp.hi], s.g[sp.lo:sp.hi], s.y[sp.lo:sp.hi], s.h[sp.lo:sp.hi]
			for i := sp.lo; i < sp.hi; i++ {
				ai := s.a[i*m+sp.lo : i*m+sp.hi]
				var at, ah, ag, ay float64
				for j, aij := range ai {
					at += aij * tn[j]
					ah += aij * h[j]
					ag += aij * g[j]
					ay += aij * y[j]
				}
				s.tc[i] = at + s.g[i]
				s.ah[i], s.ag[i], s.ay[i] = ah, ag, ay
				if !withinCap(s.tc[i]-s.t0[i], driftCap) {
					ok = false
				}
			}
		}
		if !ok {
			n.driftStops++ // ladder cut short by the drift cap, not maxSteps
			break
		}
		// Vector ladders, h first (it consumes this level's g):
		// h_{2n} = h_n + n·g_n + A_n·h_n, then g_{2n} = g_n + A_n·g_n and
		// y_{2n} = y_n + A_n·y_n.
		fn := float64(steps)
		for _, sp := range bp.spans {
			for i := sp.lo; i < sp.hi; i++ {
				s.h[i] += fn*s.g[i] + s.ah[i]
				s.g[i] += s.ag[i]
				s.y[i] += s.ay[i]
				s.tn[i] = s.tc[i]
			}
		}
		steps *= 2
		if 2*steps <= maxSteps {
			// Square up only when another level can still be attempted —
			// the single matrix multiply of the level.
			for _, sp := range bp.spans {
				squareBlock(s.a2, s.a, m, sp.lo, sp.hi)
			}
			s.a, s.a2 = s.a2, s.a
		}
	}
	if steps < 2 {
		return 0
	}
	// Σ_{k=1..n} T_k = M·(G_n·T₀) + H_n·c.
	bp.mulVec(s.ay, s.step, s.y, m)
	for _, sp := range bp.spans {
		for i := sp.lo; i < sp.hi; i++ {
			sums[i] = s.ay[i] + s.h[i]
		}
	}
	bp.copyTwins(sums)
	bp.copyTwins(s.tn)
	for i := range n.nodes {
		n.nodes[i].temp = s.tn[i]
	}
	return steps
}

// squareBlock writes the [lo, hi) diagonal block of a·a into dst; a and dst
// are m×m row-major and must not alias.
func squareBlock(dst, a []float64, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		di := dst[i*m+lo : i*m+hi]
		for j := range di {
			di[j] = 0
		}
		for k, f := range a[i*m+lo : i*m+hi] {
			bk := a[(lo+k)*m+lo : (lo+k)*m+hi]
			for j := range di {
				di[j] += f * bk[j]
			}
		}
	}
}
