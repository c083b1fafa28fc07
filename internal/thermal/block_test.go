package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// This file pins the thermal kernels to a dense m×m reference kept below:
// every Step result must be bit-identical to the dense product's on random
// networks of several components laid out contiguously or interleaved, and
// every StepLinearizedN and PredictLinearized result on random networks of
// die/sink pairs, with twin pairs, near-twins that differ in one bit and
// unevenly loaded pairs. On any other network the ladder and the walk
// return 0 and touch nothing.

// component is one connected piece of a random network: a chain of nodes
// with optional boundary links, powers, temperatures and die-like slopes.
type component struct {
	capac, temp, power, slope []float64
	chainG                    []float64 // node k-1 → node k
	bndG                      []float64 // node → ambient; 0 means no link
}

// drawComponent draws a chain of k nodes.
func drawComponent(rng *rand.Rand, k int) component {
	var c component
	for i := 0; i < k; i++ {
		c.capac = append(c.capac, 10+190*rng.Float64())
		c.temp = append(c.temp, 25+40*rng.Float64())
		c.power = append(c.power, 60*rng.Float64())
		c.slope = append(c.slope, 0.3*rng.Float64())
		g := 0.0
		if i == k-1 || rng.Intn(2) == 0 {
			g = 0.2 + rng.Float64() // the last node always leaks, so the component has an equilibrium
		}
		c.bndG = append(c.bndG, g)
		if i > 0 {
			c.chainG = append(c.chainG, 0.5+3*rng.Float64())
		}
	}
	return c
}

func (c component) clone() component {
	cp := func(x []float64) []float64 { return append([]float64(nil), x...) }
	return component{cp(c.capac), cp(c.temp), cp(c.power), cp(c.slope), cp(c.chainG), cp(c.bndG)}
}

// blockNet is a random multi-component network: comps in order, and pos
// mapping each component's k-th node to its network index.
type blockNet struct {
	comps []component
	pos   [][]int
	amb   float64
}

// drawBlockNet draws 2–4 components of 1–3 nodes. interleave deals the
// nodes of the first two components alternately instead of contiguously.
func drawBlockNet(rng *rand.Rand, interleave bool) blockNet {
	return drawNet(rng, 2+rng.Intn(3), func() int { return 1 + rng.Intn(3) }, interleave)
}

// drawPairNet draws 1–4 die/sink pairs laid out contiguously: the network
// shape the ladder and the walk run on.
func drawPairNet(rng *rand.Rand) blockNet {
	return drawNet(rng, 1+rng.Intn(4), func() int { return 2 }, false)
}

// drawNet draws nc components of size() nodes, each either fresh, an exact
// twin of an earlier one, a near-twin one bit away in a capacitance,
// temperature or power, or an uneven copy with another conductance or a
// heavier load.
func drawNet(rng *rand.Rand, nc int, size func() int, interleave bool) blockNet {
	bn := blockNet{amb: 20 + 10*rng.Float64()}
	for len(bn.comps) < nc {
		if len(bn.comps) == 0 || rng.Intn(3) == 0 {
			bn.comps = append(bn.comps, drawComponent(rng, size()))
			continue
		}
		c := bn.comps[rng.Intn(len(bn.comps))].clone()
		k := rng.Intn(len(c.capac))
		up := func(x *float64) { *x = math.Nextafter(*x, math.Inf(1)) }
		switch rng.Intn(7) {
		case 0:
			up(&c.capac[k])
		case 1:
			if len(c.chainG) > 0 {
				c.chainG[k%len(c.chainG)] *= 1.5
			} else {
				c.bndG[k] += 0.1
			}
		case 2:
			c.power[k] = 3*c.power[k] + 5
		case 3:
			up(&c.temp[k])
		case 4:
			up(&c.power[k])
		}
		bn.comps = append(bn.comps, c) // cases 5 and 6: an exact twin
	}
	next := 0
	bn.pos = make([][]int, nc)
	for ci, c := range bn.comps {
		bn.pos[ci] = make([]int, len(c.capac))
	}
	start := 0
	if interleave {
		a, b := bn.comps[0], bn.comps[1]
		for k := 0; k < len(a.capac) || k < len(b.capac); k++ {
			if k < len(a.capac) {
				bn.pos[0][k] = next
				next++
			}
			if k < len(b.capac) {
				bn.pos[1][k] = next
				next++
			}
		}
		start = 2
	}
	for ci := start; ci < nc; ci++ {
		for k := range bn.pos[ci] {
			bn.pos[ci][k] = next
			next++
		}
	}
	return bn
}

// build constructs the network and returns it with every node's slope.
func (bn blockNet) build(t *testing.T) (*Network, []float64) {
	t.Helper()
	m := 0
	for _, c := range bn.comps {
		m += len(c.capac)
	}
	capac, temp, power, slope := make([]float64, m), make([]float64, m), make([]float64, m), make([]float64, m)
	for ci, c := range bn.comps {
		for k, i := range bn.pos[ci] {
			capac[i], temp[i], power[i], slope[i] = c.capac[k], c.temp[k], c.power[k], c.slope[k]
		}
	}
	n := NewNetwork(1)
	amb := n.AddBoundary("amb", bn.amb)
	for i := 0; i < m; i++ {
		if _, err := n.AddNode("n", capac[i], temp[i]); err != nil {
			t.Fatal(err)
		}
		if err := n.SetPower(NodeID(i), power[i]); err != nil {
			t.Fatal(err)
		}
	}
	for ci, c := range bn.comps {
		for k, i := range bn.pos[ci] {
			if k > 0 {
				if _, err := n.ConnectNodes(NodeID(bn.pos[ci][k-1]), NodeID(i), c.chainG[k-1]); err != nil {
					t.Fatal(err)
				}
			}
			if c.bndG[k] > 0 {
				if _, err := n.ConnectBoundary(NodeID(i), amb, c.bndG[k]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return n, slope
}

// wantBounds is the block rule computed independently of block.go: each
// component covers [its lowest, its highest] node index, and overlapping
// covers merge.
func (bn blockNet) wantBounds() []int {
	m := 0
	type cover struct{ lo, hi int }
	var covers []cover
	for _, pos := range bn.pos {
		c := cover{pos[0], pos[0]}
		for _, i := range pos {
			c.lo, c.hi = min(c.lo, i), max(c.hi, i)
		}
		covers = append(covers, c)
		m += len(pos)
	}
	bounds := []int{0}
	for i := 0; i < m; i++ {
		cut := true // may a block end after node i?
		for _, c := range covers {
			if c.lo <= i && i < c.hi {
				cut = false
			}
		}
		if cut {
			bounds = append(bounds, i+1)
		}
	}
	return bounds
}

// denseStep is the dense exact step: next = ad·T + phi·u over all m×m
// entries of the cached propagator.
func denseStep(n *Network, dt float64) {
	m := len(n.nodes)
	p := n.propagatorFor(dt)
	u := make([]float64, m)
	for i := range u {
		u[i] = n.nodes[i].powerIn
	}
	for _, l := range n.links {
		if l.toBoundary {
			u[l.a] += l.g * n.boundaries[l.bBound].temp
		}
	}
	for i := range u {
		u[i] /= n.nodes[i].capac
	}
	next := make([]float64, m)
	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < m; j++ {
			s += p.ad[i*m+j]*n.nodes[j].temp + p.phi[i*m+j]*u[j]
		}
		next[i] = s
	}
	for i := range n.nodes {
		n.nodes[i].temp = next[i]
	}
}

func denseMatVec(dst, a, x []float64, m int) {
	for i := 0; i < m; i++ {
		s := 0.0
		for j := 0; j < m; j++ {
			s += a[i*m+j] * x[j]
		}
		dst[i] = s
	}
}

func denseMatMul(dst, a, b []float64, m int) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			dst[i*m+j] = 0
		}
		for k := 0; k < m; k++ {
			for j := 0; j < m; j++ {
				dst[i*m+j] += a[i*m+k] * b[k*m+j]
			}
		}
	}
}

// denseAnchor assembles M = Ad + Phi·C⁻¹·S and c = Phi·u densely.
func denseAnchor(n *Network, p *propagator, temps, powers, slopes []float64) (step, c []float64) {
	m := len(n.nodes)
	step, c = make([]float64, m*m), make([]float64, m)
	u := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			step[i*m+j] = p.ad[i*m+j] + p.phi[i*m+j]*(slopes[j]/n.nodes[j].capac)
		}
		u[i] = powers[i] - slopes[i]*temps[i]
	}
	for _, l := range n.links {
		if l.toBoundary {
			u[l.a] += l.g * n.boundaries[l.bBound].temp
		}
	}
	for i := range u {
		u[i] /= n.nodes[i].capac
	}
	denseMatVec(c, p.phi, u, m)
	return step, c
}

// denseLinearizedN is the dense doubling ladder (see StepLinearizedN).
func denseLinearizedN(n *Network, dt float64, maxSteps int, slopes []float64, driftCap float64, sums []float64) int {
	m := len(n.nodes)
	p := n.propagatorFor(dt)
	t0, pw := make([]float64, m), make([]float64, m)
	for i := range t0 {
		t0[i], pw[i] = n.nodes[i].temp, n.nodes[i].powerIn
	}
	step, c := denseAnchor(n, p, t0, pw, slopes)
	a, a2 := append([]float64(nil), step...), make([]float64, m*m)
	g, y, h := append([]float64(nil), c...), append([]float64(nil), t0...), append([]float64(nil), c...)
	tn, tc, v := make([]float64, m), make([]float64, m), make([]float64, m)
	denseMatVec(tn, step, t0, m)
	for i := range tn {
		tn[i] += c[i]
	}
	steps := 1
	for 2*steps <= maxSteps {
		denseMatVec(tc, a, tn, m)
		ok := true
		for i := range tc {
			tc[i] += g[i]
			if !withinCap(tc[i]-t0[i], driftCap) {
				ok = false
			}
		}
		if !ok {
			n.driftStops++
			break
		}
		fn := float64(steps)
		denseMatVec(v, a, h, m)
		for i := range h {
			h[i] += fn*g[i] + v[i]
		}
		denseMatVec(v, a, g, m)
		for i := range g {
			g[i] += v[i]
		}
		denseMatVec(v, a, y, m)
		for i := range y {
			y[i] += v[i]
		}
		copy(tn, tc)
		steps *= 2
		if 2*steps <= maxSteps {
			denseMatMul(a2, a, a, m)
			a, a2 = a2, a
		}
	}
	if steps < 2 {
		return 0
	}
	denseMatVec(v, step, y, m)
	for i := range sums {
		sums[i] = v[i] + h[i]
		n.nodes[i].temp = tn[i]
	}
	return steps
}

// densePredict is the dense linearized walk (see PredictLinearized).
func densePredict(n *Network, dt float64, maxSteps int, temps, powers, slopes []float64, driftCap float64, watch []NodeID, hottest []float64) int {
	m := len(n.nodes)
	p := n.propagatorFor(dt)
	step, c := denseAnchor(n, p, temps, powers, slopes)
	tn, tc := append([]float64(nil), temps...), make([]float64, m)
	steps := 0
	for steps < maxSteps {
		denseMatVec(tc, step, tn, m)
		ok := true
		for i := range tc {
			tc[i] += c[i]
			if !withinCap(tc[i]-temps[i], driftCap) {
				ok = false
			}
		}
		if !ok {
			break
		}
		copy(tn, tc)
		h := tn[watch[0]]
		for _, id := range watch[1:] {
			if t := tn[id]; t > h {
				h = t
			}
		}
		hottest[steps] = h
		steps++
	}
	if steps > 0 {
		copy(temps, tn)
	}
	return steps
}

func sameBitsAt(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: block %v (%#x), dense %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func nodeTemps(n *Network) []float64 {
	out := make([]float64, n.NumNodes())
	for i := range out {
		out[i] = n.Temp(NodeID(i))
	}
	return out
}

// checkBlockDiagonal asserts the plan is the block rule and every cached
// propagator is exactly zero off its blocks.
func checkBlockDiagonal(t *testing.T, n *Network, want []int) {
	t.Helper()
	if len(n.plan.bounds) != len(want) {
		t.Fatalf("block bounds %v, want %v", n.plan.bounds, want)
	}
	for b := range want {
		if n.plan.bounds[b] != want[b] {
			t.Fatalf("block bounds %v, want %v", n.plan.bounds, want)
		}
	}
	block := make([]int, len(n.nodes))
	for b := 0; b+1 < len(want); b++ {
		for i := want[b]; i < want[b+1]; i++ {
			block[i] = b
		}
	}
	m := len(n.nodes)
	for _, p := range n.props {
		if p.failed {
			continue
		}
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if block[i] != block[j] && (p.ad[i*m+j] != 0 || p.phi[i*m+j] != 0) {
					t.Fatalf("propagator (h=%g) off-block entry (%d,%d): ad %g, phi %g", p.h, i, j, p.ad[i*m+j], p.phi[i*m+j])
				}
			}
		}
	}
}

// isPairNet reports whether every block of bn is a 2-node pair.
func (bn blockNet) isPairNet() bool {
	b := bn.wantBounds()
	for i := 1; i < len(b); i++ {
		if b[i]-b[i-1] != 2 {
			return false
		}
	}
	return true
}

// TestBlockKernelMatchesDense is the kernels' contract. On random networks
// of arbitrary components every plain step is bit-identical to the dense
// reference; on random networks of pairs so is every ladder and walk, and
// on any other network both return 0 and leave every node untouched. Each
// holds before and after a State/SetState round trip, and the propagators
// used are exactly zero off-block.
func TestBlockKernelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	copied, uneven, pairNets, otherNets := 0, 0, 0, 0
	for trial := 0; trial < 160; trial++ {
		var bn blockNet
		if trial%2 == 0 {
			bn = drawPairNet(rng)
		} else {
			bn = drawBlockNet(rng, trial%3 == 2)
		}
		pairs := bn.isPairNet()
		if pairs {
			pairNets++
		} else {
			otherNets++
		}
		nb, slopes := bn.build(t) // kernel under test
		nd, _ := bn.build(t)      // dense reference
		m := nb.NumNodes()
		sums, sumsRef := make([]float64, m), make([]float64, m)
		watch := []NodeID{0, NodeID(m - 1)}
		hot, hotRef := make([]float64, 64), make([]float64, 64)

		steps := 30 + rng.Intn(30)
		for op := 0; op < steps; op++ {
			dt := []float64{0.5, 1, 2}[rng.Intn(3)]
			switch rng.Intn(5) {
			case 0:
				nb.Step(dt)
				denseStep(nd, dt)
			case 1, 2:
				k := []int{2, 3, 16, 256}[rng.Intn(4)]
				cap := []float64{0.05, 0.5, 1e9, math.Inf(1)}[rng.Intn(4)]
				before := nodeTemps(nb)
				got := nb.StepLinearizedN(dt, k, slopes, cap, sums)
				if !pairs {
					if got != 0 {
						t.Fatalf("trial %d op %d: StepLinearizedN advanced %d on a network of blocks %v", trial, op, got, nb.plan.bounds)
					}
					sameBitsAt(t, "temps after a refused ladder", nodeTemps(nb), before)
					break
				}
				want := denseLinearizedN(nd, dt, k, slopes, cap, sumsRef)
				if got != want {
					t.Fatalf("trial %d op %d: StepLinearizedN advanced %d, dense %d", trial, op, got, want)
				}
				if got > 0 {
					sameBitsAt(t, "sums", sums, sumsRef)
				}
			case 3:
				k := 1 + rng.Intn(len(hot))
				cap := []float64{0.05, 0.5, 1e9}[rng.Intn(3)]
				temps, powers := nodeTemps(nb), make([]float64, m)
				for i := range powers {
					powers[i] = nb.nodes[i].powerIn
				}
				tempsRef := append([]float64(nil), temps...)
				got := nb.PredictLinearized(dt, k, temps, powers, slopes, cap, watch, hot)
				want := 0
				if pairs {
					want = densePredict(nd, dt, k, tempsRef, powers, slopes, cap, watch, hotRef)
				}
				if got != want {
					t.Fatalf("trial %d op %d: PredictLinearized walked %d, want %d", trial, op, got, want)
				}
				sameBitsAt(t, "predicted temps", temps, tempsRef)
				sameBitsAt(t, "hottest", hot[:got], hotRef[:got])
			case 4:
				// Mutate inputs: a uniform power keeps twins twins, a
				// single node's change splits them for this call.
				i := NodeID(rng.Intn(m))
				w := 50 * rng.Float64()
				if rng.Intn(2) == 0 {
					for j := 0; j < m; j++ {
						_ = nb.SetPower(NodeID(j), w)
						_ = nd.SetPower(NodeID(j), w)
					}
				} else {
					_ = nb.SetPower(i, w)
					_ = nd.SetPower(i, w)
				}
			}
			if pairs && len(nb.macro.from) > 0 {
				computed := 0
				for b, from := range nb.macro.from {
					if from != 2*b {
						copied++
					} else {
						computed++
					}
				}
				if computed > 1 {
					uneven++
				}
			}
			sameBitsAt(t, "temps", nodeTemps(nb), nodeTemps(nd))
			if nb.PropagatorStats() != nd.PropagatorStats() {
				t.Fatalf("trial %d op %d: stats %+v, dense %+v", trial, op, nb.PropagatorStats(), nd.PropagatorStats())
			}
			if op == steps/2 {
				// Resume the kernel side from a checkpoint of itself.
				rb, _ := bn.build(t)
				if err := rb.SetState(nb.State()); err != nil {
					t.Fatal(err)
				}
				nb = rb
			}
		}
		checkBlockDiagonal(t, nb, bn.wantBounds())
	}
	if copied == 0 || uneven == 0 || pairNets == 0 || otherNets == 0 {
		t.Fatalf("copied %d twin pairs and computed two or more pairs %d times on %d pair and %d other networks: a case went unexercised",
			copied, uneven, pairNets, otherNets)
	}
}

// threeTwins is a network of three identical die/sink pairs.
func threeTwins(rng *rand.Rand) blockNet {
	c := drawComponent(rng, 2)
	bn := blockNet{comps: []component{c, c.clone(), c.clone()}, amb: 24}
	for ci := range bn.comps {
		bn.pos = append(bn.pos, []int{2 * ci, 2*ci + 1})
	}
	return bn
}

// TestBlockKernelEdgeInputs: inputs that tell twins apart only by bits or
// by one vector give results bit-identical to the dense reference. A
// non-finite input fails the first drift check, so the ladder and the walk
// return 0 and touch nothing, as the dense reference does; the plain step
// that follows spreads the NaN through the dense product's exact zeros
// into every block, bit for bit.
func TestBlockKernelEdgeInputs(t *testing.T) {
	bn := threeTwins(rand.New(rand.NewSource(4)))
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name      string
		set       func(n *Network, slopes []float64)
		nonFinite bool
	}{
		{"negative zero temperature", func(n *Network, _ []float64) {
			_ = n.SetTemp(NodeID(bn.pos[1][0]), negZero)
			_ = n.SetTemp(NodeID(bn.pos[0][0]), 0)
		}, false},
		// At 0 °C a slope no longer moves u = C⁻¹·(P − S·T₀ + …), so only
		// v = S/C tells the twin apart.
		{"slope differs at zero temperature", func(n *Network, slopes []float64) {
			_ = n.SetTemp(NodeID(bn.pos[0][0]), 0)
			_ = n.SetTemp(NodeID(bn.pos[1][0]), 0)
			slopes[bn.pos[1][0]] += 0.1
		}, false},
		{"NaN power", func(n *Network, _ []float64) { _ = n.SetPower(NodeID(bn.pos[2][0]), math.NaN()) }, true},
		{"NaN temperature in a twin", func(n *Network, _ []float64) {
			_ = n.SetTemp(NodeID(bn.pos[0][0]), math.NaN())
			_ = n.SetTemp(NodeID(bn.pos[1][0]), math.NaN())
		}, true},
		{"infinite temperature", func(n *Network, _ []float64) { _ = n.SetTemp(NodeID(bn.pos[1][0]), math.Inf(1)) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nb, slopes := bn.build(t)
			nd, _ := bn.build(t)
			m := nb.NumNodes()
			tc.set(nb, slopes)
			tc.set(nd, make([]float64, m)) // both sides step with slopes
			for _, driftCap := range []float64{1e9, math.Inf(1)} {
				before := nodeTemps(nb)
				sums, sumsRef := make([]float64, m), make([]float64, m)
				got := nb.StepLinearizedN(1, 16, slopes, driftCap, sums)
				if want := denseLinearizedN(nd, 1, 16, slopes, driftCap, sumsRef); got != want {
					t.Fatalf("cap %g: StepLinearizedN advanced %d, dense %d", driftCap, got, want)
				}
				if tc.nonFinite {
					if got != 0 {
						t.Fatalf("cap %g: StepLinearizedN advanced %d on a non-finite input", driftCap, got)
					}
					sameBitsAt(t, "temps after a refused ladder", nodeTemps(nb), before)
				} else if got > 0 {
					sameBitsAt(t, "sums", sums, sumsRef)
				}
				sameBitsAt(t, "temps", nodeTemps(nb), nodeTemps(nd))
				temps, powers := nodeTemps(nb), make([]float64, m)
				for i := range powers {
					powers[i] = nb.nodes[i].powerIn
				}
				tempsRef := append([]float64(nil), temps...)
				hot, hotRef := make([]float64, 8), make([]float64, 8)
				watch := []NodeID{0, NodeID(m - 1)}
				walked := nb.PredictLinearized(1, 8, temps, powers, slopes, driftCap, watch, hot)
				if want := densePredict(nd, 1, 8, tempsRef, powers, slopes, driftCap, watch, hotRef); walked != want {
					t.Fatalf("cap %g: PredictLinearized walked %d, dense %d", driftCap, walked, want)
				}
				if tc.nonFinite && walked != 0 {
					t.Fatalf("cap %g: PredictLinearized walked %d on a non-finite input", driftCap, walked)
				}
				sameBitsAt(t, "predicted temps", temps, tempsRef)
				sameBitsAt(t, "hottest", hot[:walked], hotRef[:walked])
			}
			for k := 0; k < 3; k++ {
				nb.Step(1)
				denseStep(nd, 1)
				sameBitsAt(t, "temps", nodeTemps(nb), nodeTemps(nd))
			}
			if tc.nonFinite && allFinite(nodeTemps(nb)) {
				t.Fatal("the plain steps stayed finite: the NaN spread went unexercised")
			}
		})
	}
}

// TestBlockKernelDivergingInfiniteCap: with an infinite drift cap a
// runaway pair's ladder and walk overflow, which the dense reference
// commits as ±Inf and spreads into every block as NaN. Such a call has a
// non-finite result, so it returns 0 and commits nothing: no temperature,
// no sum and no walked temperature.
func TestBlockKernelDivergingInfiniteCap(t *testing.T) {
	bn := threeTwins(rand.New(rand.NewSource(8)))
	bn.comps, bn.pos = bn.comps[:2], bn.pos[:2]
	nb, slopes := bn.build(t)
	nd, _ := bn.build(t)
	for _, i := range bn.pos[0] {
		slopes[i] = 1e4 // runaway feedback in the first pair only
	}
	m := nb.NumNodes()
	inf := math.Inf(1)
	before := nodeTemps(nb)
	sums, sumsRef := make([]float64, m), make([]float64, m)
	for i := range sums {
		sums[i] = -1
	}
	if got := nb.StepLinearizedN(1, 4096, slopes, inf, sums); got != 0 {
		t.Fatalf("StepLinearizedN advanced %d on a diverging ladder, want 0", got)
	}
	sameBitsAt(t, "temps after a diverged ladder", nodeTemps(nb), before)
	for i, s := range sums {
		if s != -1 {
			t.Fatalf("a diverged ladder wrote sums[%d] = %g", i, s)
		}
	}
	if denseLinearizedN(nd, 1, 4096, slopes, inf, sumsRef) == 0 || allFinite(sumsRef) {
		t.Fatal("the dense ladder did not commit a non-finite result: the case is not exercised")
	}

	temps, powers := nodeTemps(nb), make([]float64, m)
	for i := range powers {
		powers[i] = nb.nodes[i].powerIn
	}
	tempsRef := append([]float64(nil), temps...)
	hot, hotRef := make([]float64, 400), make([]float64, 400)
	watch := []NodeID{0, NodeID(m - 1)}
	if got := nb.PredictLinearized(1, len(hot), temps, powers, slopes, inf, watch, hot); got != 0 {
		t.Fatalf("PredictLinearized walked %d on a diverging walk, want 0", got)
	}
	sameBitsAt(t, "temps after a diverged walk", temps, before)
	nd, _ = bn.build(t)
	if densePredict(nd, 1, len(hot), tempsRef, powers, slopes, inf, watch, hotRef) == 0 || allFinite(tempsRef) {
		t.Fatal("the dense walk did not commit a non-finite result: the case is not exercised")
	}
}

// TestBlockPlanInterleavedMerges: components whose index ranges interleave
// share one block, and a connected network is one block.
func TestBlockPlanInterleavedMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		bn := drawBlockNet(rng, true)
		n, _ := bn.build(t)
		n.Step(1)
		want := bn.wantBounds()
		checkBlockDiagonal(t, n, want)
		if len(bn.comps[0].capac) > 1 && want[1] < len(bn.comps[0].capac)+len(bn.comps[1].capac) {
			t.Fatalf("interleaved components split into blocks %v", want)
		}
	}
	chain, _ := drawNet(rng, 1, func() int { return 5 }, false).build(t)
	chain.Step(1)
	if got := chain.plan.bounds; len(got) != 2 || got[1] != 5 {
		t.Fatalf("a connected chain planned as %v, want one block", got)
	}
}

// TestT3TwinSockets: the server's network is two die/sink pairs whose
// propagator blocks are bit-identical, so a uniformly loaded server
// computes the first socket and copies the second.
func TestT3TwinSockets(t *testing.T) {
	n, slopes := t3Net(t)
	sums := make([]float64, n.NumNodes())
	if got := n.StepLinearizedN(1, 16, slopes, 1, sums); got != 16 {
		t.Fatalf("settled ladder climbed %d of 16 steps", got)
	}
	if b := n.plan.bounds; len(b) != 3 || b[1] != 2 || b[2] != 4 || !n.plan.pairs {
		t.Fatalf("T3 blocks %v (pairs %v), want [0 2 4] pairs", b, n.plan.pairs)
	}
	if tw := n.props[0].twin; len(tw) != 2 || tw[0] != (twinCopy{0, -1, 2}) || tw[1] != (twinCopy{2, 0, 2}) {
		t.Fatalf("T3 twin map %v, want [{0 -1 2} {2 0 2}]", tw)
	}
	if f := n.macro.from; len(f) != 2 || f[0] != 0 || f[1] != 0 {
		t.Fatalf("uniform load took pair results from %v, want [0 0]: compute the first, copy the second", f)
	}
}

// TestPairKernelAllocs: at steady state a ladder and a walk allocate
// nothing.
func TestPairKernelAllocs(t *testing.T) {
	n, slopes := t3Net(t)
	start := nodeTemps(n)
	sums := make([]float64, len(start))
	temps, powers := make([]float64, len(start)), make([]float64, len(start))
	for i := range powers {
		powers[i] = n.nodes[i].powerIn
	}
	dies, hottest := []NodeID{0, 2}, make([]float64, 16)
	ladder := func() {
		for j, t := range start {
			n.nodes[j].temp = t
		}
		if got := n.StepLinearizedN(1, 256, slopes, math.MaxFloat64, sums); got != 256 {
			t.Fatalf("ladder climbed %d of 256 steps", got)
		}
	}
	walk := func() {
		copy(temps, start)
		if got := n.PredictLinearized(1, 16, temps, powers, slopes, 1, dies, hottest); got != 16 {
			t.Fatalf("walk advanced %d of 16 steps", got)
		}
	}
	ladder()
	walk()
	if avg := testing.AllocsPerRun(100, ladder); avg != 0 {
		t.Fatalf("a ladder allocated %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, walk); avg != 0 {
		t.Fatalf("a walk allocated %.1f times, want 0", avg)
	}
}

// TestPropagatorBuildAllocs: a build allocates its cached entry — the
// struct, one buffer for the key and both matrices, and the twin map — and
// nothing else; the Expm workspace and system matrix are reused.
func TestPropagatorBuildAllocs(t *testing.T) {
	n, _ := t3Net(t)
	n.Step(1)
	if avg := testing.AllocsPerRun(50, func() { n.cachePropagator(1, nil, n.condGen) }); avg > 3 {
		t.Fatalf("a propagator build allocated %.1f times, want at most 3", avg)
	}
}
