package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// randomMacroNet builds a small random RC network of die/sink pairs —
// the shape the ladder and the walk run on — with boundary leaks,
// returning the network and per-node feedback slopes.
func randomMacroNet(t *testing.T, rng *rand.Rand, pairs int) (*Network, []float64) {
	t.Helper()
	n := NewNetwork(1)
	amb := n.AddBoundary("amb", 20+rng.Float64()*15)
	nodes := 2 * pairs
	ids := make([]NodeID, nodes)
	for i := range ids {
		id, err := n.AddNode("n", 10+rng.Float64()*200, 25+rng.Float64()*40)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if _, err := n.ConnectBoundary(id, amb, 0.2+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if err := n.SetPower(id, rng.Float64()*40); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < nodes; i += 2 {
		if _, err := n.ConnectNodes(ids[i-1], ids[i], 0.5+2*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	slopes := make([]float64, nodes)
	for i := range slopes {
		if rng.Intn(2) == 0 {
			slopes[i] = rng.Float64() * 0.3 // stable feedback, W/°C
		}
	}
	return n, slopes
}

// TestStepLinearizedNMatchesIteratedMap pins the doubling ladder to the
// brute-force reference: n applications of the per-step affine map with the
// feedback slopes folded into the injected power, which is exactly what the
// fixed-dt path does for a linear heat source.
func TestStepLinearizedNMatchesIteratedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		na, slopes := randomMacroNet(t, rng, 1+rng.Intn(3))
		nodes := na.NumNodes()
		nb := cloneNetwork(t, na)

		dt := 0.5 + rng.Float64()*1.5
		maxSteps := 1 << (2 + rng.Intn(8))

		// Reference: iterate single exact steps, refreshing the linearized
		// power injection from the current temperature each step.
		base := make([]float64, nodes)
		anchor := make([]float64, nodes)
		for i := 0; i < nodes; i++ {
			anchor[i] = nb.Temp(NodeID(i))
			base[i] = nb.nodes[i].powerIn // true power at the anchor
		}

		sums := make([]float64, nodes)
		n := na.StepLinearizedN(dt, maxSteps, slopes, 1e9, sums)
		if n != maxSteps {
			t.Fatalf("trial %d: wanted the full window %d, got %d", trial, maxSteps, n)
		}

		refSums := make([]float64, nodes)
		for k := 0; k < n; k++ {
			for i := 0; i < nodes; i++ {
				p := base[i] + slopes[i]*(nb.Temp(NodeID(i))-anchor[i])
				if err := nb.SetPower(NodeID(i), p); err != nil {
					t.Fatal(err)
				}
			}
			nb.Step(dt)
			for i := 0; i < nodes; i++ {
				refSums[i] += nb.Temp(NodeID(i))
			}
		}
		for i := 0; i < nodes; i++ {
			if d := math.Abs(na.Temp(NodeID(i)) - nb.Temp(NodeID(i))); d > 1e-9 {
				t.Fatalf("trial %d node %d: endpoint drift %g (macro %g vs ref %g)",
					trial, i, d, na.Temp(NodeID(i)), nb.Temp(NodeID(i)))
			}
			if d := math.Abs(sums[i] - refSums[i]); d > 1e-7*(1+math.Abs(refSums[i])) {
				t.Fatalf("trial %d node %d: temperature sum off by %g", trial, i, d)
			}
		}
	}
}

// cloneNetwork rebuilds an identical network by replaying the public
// construction calls, so the reference path shares no state with the
// network under test.
func cloneNetwork(t *testing.T, src *Network) *Network {
	t.Helper()
	dst := NewNetwork(src.maxStep)
	dst.SetIntegrator(src.integrator)
	for _, b := range src.boundaries {
		dst.AddBoundary(b.name, b.temp)
	}
	for _, nd := range src.nodes {
		id, err := dst.AddNode(nd.name, nd.capac, nd.temp)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.SetPower(id, nd.powerIn); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range src.links {
		var err error
		if l.toBoundary {
			_, err = dst.ConnectBoundary(l.a, l.bBound, l.g)
		} else {
			_, err = dst.ConnectNodes(l.a, l.b, l.g)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStepLinearizedNDriftCap: a tight drift cap must shrink the window
// (or reject it) rather than overshoot, and a rejected call must leave the
// state untouched.
func TestStepLinearizedNDriftCap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, slopes := randomMacroNet(t, rng, 2)
	// Push far from equilibrium so drift is substantial.
	for i := 0; i < 4; i++ {
		if err := n.SetPower(NodeID(i), 120); err != nil {
			t.Fatal(err)
		}
	}
	before := nodeTemps(n)
	sums := make([]float64, 4)
	steps := n.StepLinearizedN(1, 4096, slopes, 0.5, sums)
	if steps == 0 {
		for i := range before {
			if n.Temp(NodeID(i)) != before[i] {
				t.Fatalf("rejected macro-step mutated node %d", i)
			}
		}
		return
	}
	for i := range before {
		if d := math.Abs(n.Temp(NodeID(i)) - before[i]); d > 0.5+1e-9 {
			t.Fatalf("node %d drifted %g past the 0.5 cap over %d steps", i, d, steps)
		}
	}
	if steps == 4096 {
		t.Fatalf("a 120 W injection should not fit 4096 steps under a 0.5 °C cap")
	}
}

// TestStepLinearizedNRejectsDegenerate covers the must-fall-back cases.
func TestStepLinearizedNRejectsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, slopes := randomMacroNet(t, rng, 1)
	sums := make([]float64, 2)
	if got := n.StepLinearizedN(1, 1, slopes, 1, sums); got != 0 {
		t.Fatalf("maxSteps=1 must be rejected, got %d", got)
	}
	if got := n.StepLinearizedN(0, 8, slopes, 1, sums); got != 0 {
		t.Fatalf("dt=0 must be rejected, got %d", got)
	}
	if got := n.StepLinearizedN(1, 8, slopes[:1], 1, sums); got != 0 {
		t.Fatalf("short slopes must be rejected, got %d", got)
	}
	n.SetIntegrator(IntegratorRK4)
	if got := n.StepLinearizedN(1, 8, slopes, 1, sums); got != 0 {
		t.Fatalf("RK4 networks must be rejected, got %d", got)
	}
}

// TestLookupGenerationFastPath pins the satellite contract of the O(1)
// lookup: steady-state steps must not rebuild propagators, same-value
// SetConductance must not move the generation, and toggling between two
// operating points must re-match (and re-stamp) the cached entries instead
// of rebuilding.
func TestLookupGenerationFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, _ := randomMacroNet(t, rng, 2)
	link := LinkID(0)
	gA := n.links[link].g
	gB := gA * 2

	n.Step(1)
	if n.propBuilds != 1 {
		t.Fatalf("first step should build once, built %d", n.propBuilds)
	}
	gen := n.CondGeneration()
	for i := 0; i < 10; i++ {
		if err := n.SetConductance(link, gA); err != nil { // same value: no-op
			t.Fatal(err)
		}
		n.Step(1)
	}
	if n.CondGeneration() != gen {
		t.Fatalf("same-value SetConductance moved the generation %d → %d", gen, n.CondGeneration())
	}
	if n.propBuilds != 1 {
		t.Fatalf("steady state rebuilt the propagator: %d builds", n.propBuilds)
	}

	// Toggle A→B→A→B…: exactly one extra build (for B), then re-stamped
	// slow-path hits keep both entries warm.
	for i := 0; i < 6; i++ {
		g := gA
		if i%2 == 0 {
			g = gB
		}
		if err := n.SetConductance(link, g); err != nil {
			t.Fatal(err)
		}
		n.Step(1)
	}
	if n.propBuilds != 2 {
		t.Fatalf("toggling two operating points built %d times, want 2", n.propBuilds)
	}
}

// TestLookupGenerationBitIdentical: stepping a network through a mixed
// mutation schedule must give bit-identical temperatures whether the cache
// is consulted through the generation fast path (warm stamps) or forced
// down the slow verification path every time (by perturbing the
// generation counter via a no-op topology edit between steps).
func TestLookupGenerationBitIdentical(t *testing.T) {
	run := func(bustGen bool) []float64 {
		rng := rand.New(rand.NewSource(9))
		n, _ := randomMacroNet(t, rng, 2)
		link := LinkID(1)
		base := n.links[link].g
		for k := 0; k < 50; k++ {
			if k%7 == 3 {
				if err := n.SetConductance(link, base*(1+float64(k%3))); err != nil {
					t.Fatal(err)
				}
			}
			if bustGen {
				n.condGen++ // stale stamps: force the slow verification walk
			}
			n.Step(1)
		}
		out := make([]float64, n.NumNodes())
		for i := range out {
			out[i] = n.Temp(NodeID(i))
		}
		return out
	}
	fast, slow := run(false), run(true)
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("node %d differs between fast and slow lookup paths: %g vs %g", i, fast[i], slow[i])
		}
	}
}

// BenchmarkPropagatorLookup shows the steady-state lookup is O(1) in the
// link count: ns/op must stay flat as links grow (the pre-satellite float
// walk scaled linearly).
func BenchmarkPropagatorLookup(b *testing.B) {
	for _, links := range []int{4, 64, 1024} {
		b.Run(benchName("links", links), func(b *testing.B) {
			n := NewNetwork(1)
			amb := n.AddBoundary("amb", 25)
			var last NodeID
			for i := 0; i < links; i++ {
				id, err := n.AddNode("n", 50, 30)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := n.ConnectBoundary(id, amb, 0.5); err != nil {
					b.Fatal(err)
				}
				last = id
			}
			_ = n.SetPower(last, 20)
			n.Step(1) // build once
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.propagatorFor(1)
			}
			if n.propMisses != 1 {
				b.Fatal("lookup missed at steady state")
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// CondGeneration returns the conductance generation counter: it advances
// exactly when some link's conductance value changes (or the topology is
// edited), so equal generations imply an identical system matrix.
func (n *Network) CondGeneration() uint64 { return n.condGen }
