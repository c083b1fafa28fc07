package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// This file pins the block kernel (block.go) to the dense kernel it
// replaced: every Step, StepLinearizedN and PredictLinearized result must be
// bit-identical to a dense m×m reference kept below, on random networks of
// several components laid out contiguously or interleaved, with twin
// components and near-twins that differ in one value.

// component is one connected piece of a random network: a chain of nodes
// with optional boundary links, powers, temperatures and die-like slopes.
type component struct {
	capac, temp, power, slope []float64
	chainG                    []float64 // node k-1 → node k
	bndG                      []float64 // node → ambient; 0 means no link
}

func drawComponent(rng *rand.Rand) component {
	k := 1 + rng.Intn(3)
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

// drawBlockNet draws 2–4 components, each either fresh, an exact twin of
// an earlier one, or a near-twin differing in a single capacitance,
// conductance, power or temperature. interleave deals the nodes of the
// first two components alternately instead of contiguously.
func drawBlockNet(rng *rand.Rand, interleave bool) blockNet {
	bn := blockNet{amb: 20 + 10*rng.Float64()}
	nc := 2 + rng.Intn(3)
	for len(bn.comps) < nc {
		if len(bn.comps) == 0 || rng.Intn(3) == 0 {
			bn.comps = append(bn.comps, drawComponent(rng))
			continue
		}
		c := bn.comps[rng.Intn(len(bn.comps))].clone()
		k := rng.Intn(len(c.capac))
		switch rng.Intn(6) {
		case 0:
			c.capac[k] *= 1 + 1e-9
		case 1:
			if len(c.chainG) > 0 {
				c.chainG[k%len(c.chainG)] *= 1.5
			} else {
				c.bndG[k] += 0.1
			}
		case 2:
			c.power[k] += 1
		case 3:
			c.temp[k] = math.Nextafter(c.temp[k], math.Inf(1))
		}
		bn.comps = append(bn.comps, c) // cases 4 and 5: an exact twin
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

// TestBlockKernelMatchesDense is the block kernel's contract: on random
// multi-component networks, every kernel entry point gives results
// bit-identical to the dense reference, before and after a State/SetState
// round trip, and the propagators it uses are exactly zero off-block.
func TestBlockKernelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	copied := 0
	for trial := 0; trial < 120; trial++ {
		bn := drawBlockNet(rng, trial%3 == 2)
		nb, slopes := bn.build(t) // block kernel
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
				got := nb.StepLinearizedN(dt, k, slopes, cap, sums)
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
				want := densePredict(nd, dt, k, tempsRef, powers, slopes, cap, watch, hotRef)
				if got != want {
					t.Fatalf("trial %d op %d: PredictLinearized walked %d, dense %d", trial, op, got, want)
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
			copied += len(nb.plan.copies)
			sameBitsAt(t, "temps", nodeTemps(nb), nodeTemps(nd))
			if nb.PropagatorStats() != nd.PropagatorStats() {
				t.Fatalf("trial %d op %d: stats %+v, dense %+v", trial, op, nb.PropagatorStats(), nd.PropagatorStats())
			}
			if op == steps/2 {
				// Resume the block side from a checkpoint of itself.
				rb, _ := bn.build(t)
				if err := rb.SetState(nb.State()); err != nil {
					t.Fatal(err)
				}
				nb = rb
			}
		}
		checkBlockDiagonal(t, nb, bn.wantBounds())
	}
	if copied == 0 {
		t.Fatal("no call copied a twin block: the twin rule went unexercised")
	}
}

// TestBlockKernelEdgeInputs: inputs that tell twins apart only by bits or
// by one vector, and non-finite inputs, give results bit-identical to the
// dense reference, whose exact zeros turn a non-finite input into NaN in
// every block.
func TestBlockKernelEdgeInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := drawComponent(rng)
	bn := blockNet{comps: []component{c, c.clone(), c.clone()}, amb: 24}
	next := 0
	for range bn.comps {
		var pos []int
		for range c.capac {
			pos = append(pos, next)
			next++
		}
		bn.pos = append(bn.pos, pos)
	}
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name string
		set  func(n *Network, slopes []float64)
	}{
		{"negative zero temperature", func(n *Network, _ []float64) {
			_ = n.SetTemp(NodeID(bn.pos[1][0]), negZero)
			_ = n.SetTemp(NodeID(bn.pos[0][0]), 0)
		}},
		// At 0 °C a slope no longer moves u = C⁻¹·(P − S·T₀ + …), so only
		// v = S/C tells the twin apart.
		{"slope differs at zero temperature", func(n *Network, slopes []float64) {
			_ = n.SetTemp(NodeID(bn.pos[0][0]), 0)
			_ = n.SetTemp(NodeID(bn.pos[1][0]), 0)
			slopes[bn.pos[1][0]] += 0.1
		}},
		{"NaN power", func(n *Network, _ []float64) { _ = n.SetPower(NodeID(bn.pos[2][0]), math.NaN()) }},
		{"NaN temperature in a twin", func(n *Network, _ []float64) {
			_ = n.SetTemp(NodeID(bn.pos[0][0]), math.NaN())
			_ = n.SetTemp(NodeID(bn.pos[1][0]), math.NaN())
		}},
		{"infinite temperature", func(n *Network, _ []float64) { _ = n.SetTemp(NodeID(bn.pos[1][0]), math.Inf(1)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nb, slopes := bn.build(t)
			nd, _ := bn.build(t)
			m := nb.NumNodes()
			tc.set(nb, slopes)
			tc.set(nd, make([]float64, m)) // both sides step with slopes
			sums, sumsRef := make([]float64, m), make([]float64, m)
			got := nb.StepLinearizedN(1, 16, slopes, 1e9, sums)
			if want := denseLinearizedN(nd, 1, 16, slopes, 1e9, sumsRef); got != want {
				t.Fatalf("StepLinearizedN advanced %d, dense %d", got, want)
			}
			if got > 0 {
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
			walked := nb.PredictLinearized(1, 8, temps, powers, slopes, 1e9, watch, hot)
			if want := densePredict(nd, 1, 8, tempsRef, powers, slopes, 1e9, watch, hotRef); walked != want {
				t.Fatalf("PredictLinearized walked %d, dense %d", walked, want)
			}
			sameBitsAt(t, "predicted temps", temps, tempsRef)
			sameBitsAt(t, "hottest", hot[:walked], hotRef[:walked])
			for k := 0; k < 3; k++ {
				nb.Step(1)
				denseStep(nd, 1)
				sameBitsAt(t, "temps", nodeTemps(nb), nodeTemps(nd))
			}
		})
	}
}

// TestBlockKernelDivergingInfiniteCap: with an infinite drift cap a
// runaway block's ladder and walk overflow to ±Inf and still commit, and
// the dense product spreads that as NaN into every block. Such calls run
// as one block and stay bit-identical.
func TestBlockKernelDivergingInfiniteCap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := drawComponent(rng)
	bn := blockNet{comps: []component{c, c.clone()}, amb: 24}
	for ci := range bn.comps {
		var pos []int
		for k := range c.capac {
			pos = append(pos, ci*len(c.capac)+k)
		}
		bn.pos = append(bn.pos, pos)
	}
	nb, slopes := bn.build(t)
	nd, _ := bn.build(t)
	for _, i := range bn.pos[0] {
		slopes[i] = 1e4 // runaway feedback in the first component only
	}
	m := nb.NumNodes()
	sums, sumsRef := make([]float64, m), make([]float64, m)
	inf := math.Inf(1)
	if got, want := nb.StepLinearizedN(1, 4096, slopes, inf, sums), denseLinearizedN(nd, 1, 4096, slopes, inf, sumsRef); got != want {
		t.Fatalf("StepLinearizedN advanced %d, dense %d", got, want)
	}
	sameBitsAt(t, "sums", sums, sumsRef)
	sameBitsAt(t, "temps", nodeTemps(nb), nodeTemps(nd))
	if allFinite(sums) {
		t.Fatal("the runaway ladder stayed finite: the case is not exercised")
	}

	nb, _ = bn.build(t)
	nd, _ = bn.build(t)
	temps, powers := nodeTemps(nb), make([]float64, m)
	for i := range powers {
		powers[i] = nb.nodes[i].powerIn
	}
	tempsRef := append([]float64(nil), temps...)
	hot, hotRef := make([]float64, 400), make([]float64, 400)
	watch := []NodeID{0, NodeID(m - 1)}
	got := nb.PredictLinearized(1, len(hot), temps, powers, slopes, inf, watch, hot)
	if want := densePredict(nd, 1, len(hot), tempsRef, powers, slopes, inf, watch, hotRef); got != want {
		t.Fatalf("PredictLinearized walked %d, dense %d", got, want)
	}
	sameBitsAt(t, "predicted temps", temps, tempsRef)
	sameBitsAt(t, "hottest", hot[:got], hotRef[:got])
	if allFinite(temps) {
		t.Fatal("the runaway walk stayed finite: the case is not exercised")
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
	chain, _ := randomMacroNet(t, rng, 5)
	chain.Step(1)
	if got := chain.plan.bounds; len(got) != 2 || got[1] != 5 {
		t.Fatalf("a connected chain planned as %v, want one block", got)
	}
}

// TestT3TwinSockets: the server's network is two die/sink blocks whose
// propagator blocks are bit-identical, so a uniformly loaded server
// computes the first socket and copies the second.
func TestT3TwinSockets(t *testing.T) {
	n, slopes := t3Net(t)
	sums := make([]float64, n.NumNodes())
	if got := n.StepLinearizedN(1, 16, slopes, 1, sums); got != 16 {
		t.Fatalf("settled ladder climbed %d of 16 steps", got)
	}
	if b := n.plan.bounds; len(b) != 3 || b[1] != 2 || b[2] != 4 {
		t.Fatalf("T3 blocks %v, want [0 2 4]", b)
	}
	if tw := n.props[0].twin; len(tw) != 2 || tw[0] != (twinCopy{0, -1, 2}) || tw[1] != (twinCopy{2, 0, 2}) {
		t.Fatalf("T3 twin map %v, want [{0 -1 2} {2 0 2}]", tw)
	}
	if len(n.plan.spans) != 1 || len(n.plan.copies) != 1 {
		t.Fatalf("uniform load computed %d blocks and copied %d, want 1 and 1", len(n.plan.spans), len(n.plan.copies))
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
