package thermal

import "math/bits"

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
// H_K + K·G_K + A_K·H_K) in O(log K) small multiplies.
//
// The ladder runs per die/sink pair (see "Pairs" in doc.go). The geometric
// sums only ever multiply the two fixed vectors c and T₀, so they ride
// along as the vector ladders g_K = G_K·c, y_K = G_K·T₀ and h_K = H_K·c,
// and only A_K is squared. The running temperature sum is what turns the
// fixed-dt rectangle-rule energy accounting into a closed form: the caller
// charges K·dt·P(ΣT/K) instead of K separate post-step evaluations.
// Because the composition reproduces the *discrete* fixed-dt trajectory —
// not the continuous-time integral — the only deviation from the reference
// path is the curvature of the leakage model over the window's temperature
// excursion, which the drift cap bounds.

// macroScratch holds the m-vector work buffers of StepLinearizedN and
// PredictLinearized, reused across calls so macro-stepping does not
// allocate at steady state.
type macroScratch struct {
	m        int
	v, u, t0 []float64 // anchor inputs S/C, C⁻¹·(P − S·T₀ + Σ g_b·T_b) and T₀
	tn, sum  []float64 // the temperatures each pair reached, and the ladder's Σ T_k
	from     []int     // per pair, the first node of the pair whose results it takes
}

func (s *macroScratch) size(m int) {
	if s.m == m {
		return
	}
	s.m = m
	vs := make([]float64, 5*m)
	for i, v := range []*[]float64{&s.v, &s.u, &s.t0, &s.tn, &s.sum} {
		*v = vs[i*m : (i+1)*m : (i+1)*m]
	}
	s.from = make([]int, m/2)
}

// anchor assembles the per-step affine map's inputs at the anchor temps
// (copied to t0), powers (which may be the u scratch itself) and slopes:
// v = S/C and u = C⁻¹·(P − S·T₀ + Σ g_b·T_b) for every node, exactly the
// way stepExact assembles its per-step input. Then it applies the twin
// rule to every pair: from[b] is the pair's own first node, or its twin
// source's when p records one and v, u and T₀ are bit-identical over the
// two pairs.
func (n *Network) anchor(p *propagator, temps, powers, slopes []float64) {
	s := &n.macro
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
	for b, tc := range p.twin {
		lo, src := tc.dst, tc.src
		s.from[b] = lo
		if src >= 0 && sameBits(s.v[lo:lo+2], s.v[src:src+2]) && sameBits(s.u[lo:lo+2], s.u[src:src+2]) &&
			sameBits(s.t0[lo:lo+2], s.t0[src:src+2]) {
			s.from[b] = src
		}
	}
}

// pairMap returns the pair [lo, lo+2)'s one-step map M = Ad + Phi·diag(v)
// and affine term c = Phi·u from the anchor inputs.
func (n *Network) pairMap(p *propagator, lo int) (m00, m01, m10, m11, c0, c1 float64) {
	s, r0, r1 := &n.macro, lo*p.m+lo, (lo+1)*p.m+lo
	ad0, ad1 := p.ad[r0:r0+2], p.ad[r1:r1+2]
	phi0, phi1 := p.phi[r0:r0+2], p.phi[r1:r1+2]
	v, u := s.v[lo:lo+2], s.u[lo:lo+2]
	m00, m01 = ad0[0]+phi0[0]*v[0], ad0[1]+phi0[1]*v[1]
	m10, m11 = ad1[0]+phi1[0]*v[0], ad1[1]+phi1[1]*v[1]
	c0 = 0 + phi0[0]*u[0] + phi0[1]*u[1]
	c1 = 0 + phi1[0]*u[0] + phi1[1]*u[1]
	return m00, m01, m10, m11, c0, c1
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
// < 2, a non-exact integrator, an unbuildable propagator, a network whose
// blocks are not all pairs, a first doubling already beyond the drift cap
// (fast transients and thermal runaway both land here), or a non-finite
// input or result, which only a state that has already diverged can see;
// the caller then falls back to plain Step, which is the exact fixed-dt
// semantics.
func (n *Network) StepLinearizedN(dt float64, maxSteps int, slopes []float64, driftCap float64, sums []float64) int {
	m := len(n.nodes)
	if dt <= 0 || m == 0 || maxSteps < 2 || n.integrator != IntegratorExact {
		return 0
	}
	if len(slopes) != m || len(sums) != m || driftCap <= 0 {
		return 0
	}
	if n.plan.refresh(n); !n.plan.pairs {
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
	n.anchor(p, s.t0, s.u, slopes)
	levels := bits.Len(uint(maxSteps)) - 1 // the largest n = 2^levels ≤ maxSteps
	lv, top := n.climbPairs(p, levels, driftCap)
	if lv < levels {
		n.driftStops++ // ladder cut short by the drift cap, not maxSteps
	}
	if lv == 0 {
		return 0
	}
	if top > lv {
		// A breach on any node ends every pair's ladder: re-climb the
		// pairs that went higher to the common level.
		n.climbPairs(p, lv, driftCap)
	}
	if !finite(s.tn) || !finite(s.sum) {
		return 0
	}
	copy(sums, s.sum)
	for i := range n.nodes {
		n.nodes[i].temp = s.tn[i]
	}
	return 1 << lv
}

// climbPairs climbs every pair the call computes, none past limit levels
// or the lowest level an earlier pair reached, and copies each twin pair's
// results from its source. It returns the lowest and highest levels
// climbed.
func (n *Network) climbPairs(p *propagator, limit int, driftCap float64) (lv, top int) {
	s := &n.macro
	lv = limit
	for b, from := range s.from {
		lo := 2 * b
		if from != lo {
			s.tn[lo], s.tn[lo+1] = s.tn[from], s.tn[from+1]
			s.sum[lo], s.sum[lo+1] = s.sum[from], s.sum[from+1]
			continue
		}
		got := n.climb(p, lo, lv, driftCap)
		lv, top = min(lv, got), max(top, got)
	}
	return lv, top
}

// climb runs the doubling ladder on the pair [lo, lo+2) for at most limit
// levels, stopping at the first level whose candidate endpoint leaves the
// drift cap, stores the endpoint T_n and Σ_{k≤n} T_k it reached into the
// scratch's tn and sum, and returns the levels climbed (n = 2^levels). A_n
// is (a00 a01; a10 a11), x the endpoint and g, y, h the vector ladders.
func (n *Network) climb(p *propagator, lo, limit int, driftCap float64) int {
	s := &n.macro
	m00, m01, m10, m11, c0, c1 := n.pairMap(p, lo)
	t0, t1 := s.t0[lo], s.t0[lo+1]

	// Ladder start: n = 1 — A = M, g = c, y = T₀, h = c, T₁ = M·T₀ + c.
	a00, a01, a10, a11 := m00, m01, m10, m11
	g0, g1, y0, y1, h0, h1 := c0, c1, t0, t1, c0, c1
	x0 := 0 + m00*t0 + m01*t1 + c0
	x1 := 0 + m10*t0 + m11*t1 + c1
	lv := 0
	for lv < limit {
		// The candidate endpoint T_{2n} = A_n·T_n + g_n, drift-checked
		// before the level is committed.
		e0 := 0 + a00*x0 + a01*x1 + g0
		e1 := 0 + a10*x0 + a11*x1 + g1
		if !withinCap(e0-t0, driftCap) || !withinCap(e1-t1, driftCap) {
			break
		}
		// h_{2n} = h_n + (n·g_n + A_n·h_n) on this level's g, then
		// g_{2n} = g_n + A_n·g_n and y_{2n} = y_n + A_n·y_n.
		fn := float64(int(1) << lv)
		h0, h1 = h0+(fn*g0+(0+a00*h0+a01*h1)), h1+(fn*g1+(0+a10*h0+a11*h1))
		g0, g1 = g0+(0+a00*g0+a01*g1), g1+(0+a10*g0+a11*g1)
		y0, y1 = y0+(0+a00*y0+a01*y1), y1+(0+a10*y0+a11*y1)
		x0, x1 = e0, e1
		lv++
		if lv < limit {
			// Square up only when another level can still be attempted.
			a00, a01, a10, a11 = 0+a00*a00+a01*a10, 0+a00*a01+a01*a11, 0+a10*a00+a11*a10, 0+a10*a01+a11*a11
		}
	}
	// Σ_{k=1..n} T_k = M·(G_n·T₀) + H_n·c.
	s.tn[lo], s.tn[lo+1] = x0, x1
	s.sum[lo] = 0 + m00*y0 + m01*y1 + h0
	s.sum[lo+1] = 0 + m10*y0 + m11*y1 + h1
	return lv
}
