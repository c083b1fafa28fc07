package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// netParams is one random network drawn up front, so the exact and RK4
// ground-truth copies are built from identical values.
type netParams struct {
	capac, initial []float64 // per node
	chainG         []float64 // node i-1 → i conductances
	boundaryG      float64   // node 0 → ambient
	power          []float64 // per node
}

func drawNetParams(rng *rand.Rand) netParams {
	m := 1 + rng.Intn(6)
	p := netParams{boundaryG: 0.2 + 2*rng.Float64()}
	for i := 0; i < m; i++ {
		p.capac = append(p.capac, 5+95*rng.Float64())
		p.initial = append(p.initial, 20+40*rng.Float64())
		p.power = append(p.power, 50*rng.Float64())
	}
	for i := 1; i < m; i++ {
		p.chainG = append(p.chainG, 0.5+3*rng.Float64())
	}
	return p
}

// build constructs the network: a connected chain of capacitive nodes with
// one boundary link, heated per node. maxStep only matters on the RK4 path.
func (p netParams) build(t *testing.T, maxStep float64, integ Integrator) (*Network, []NodeID, []LinkID) {
	t.Helper()
	n := NewNetwork(maxStep)
	n.SetIntegrator(integ)
	var ids []NodeID
	var lids []LinkID
	for i := range p.capac {
		id, err := n.AddNode("n", p.capac[i], p.initial[i])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	amb := n.AddBoundary("amb", 24)
	for i, g := range p.chainG {
		lid, err := n.ConnectNodes(ids[i], ids[i+1], g)
		if err != nil {
			t.Fatal(err)
		}
		lids = append(lids, lid)
	}
	lid, err := n.ConnectBoundary(ids[0], amb, p.boundaryG)
	if err != nil {
		t.Fatal(err)
	}
	lids = append(lids, lid)
	for i := range ids {
		if err := n.SetPower(ids[i], p.power[i]); err != nil {
			t.Fatal(err)
		}
	}
	return n, ids, lids
}

// randomNetworkPair builds two identical random RC networks: one on the
// exact propagator path, one on fine-substep RK4 as ground truth.
func randomNetworkPair(t *testing.T, rng *rand.Rand) (exact, ref *Network, nodes []NodeID, links []LinkID) {
	p := drawNetParams(rng)
	exact, nodes, links = p.build(t, 0.01, IntegratorExact)
	ref, _, _ = p.build(t, 0.01, IntegratorRK4)
	return exact, ref, nodes, links
}

// TestExactMatchesRK4Property is the fast path's correctness contract:
// across random networks, powers and mid-run conductance/boundary/power
// changes, the exact propagator must track fine-substep RK4 within 1e-6 °C
// per step.
func TestExactMatchesRK4Property(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		exact, ref, nodes, links := randomNetworkPair(t, rng)

		mutRng := rand.New(rand.NewSource(int64(1000 + trial)))
		const steps = 40
		dt := 1.0
		for s := 0; s < steps; s++ {
			// Occasionally mutate inputs, applying the identical mutation to
			// both networks: conductance (invalidates the exact cache),
			// boundary temperature and power (must not need invalidation).
			if mutRng.Float64() < 0.2 {
				li := links[mutRng.Intn(len(links))]
				g := 0.1 + 3*mutRng.Float64()
				if err := exact.SetConductance(li, g); err != nil {
					t.Fatal(err)
				}
				if err := ref.SetConductance(li, g); err != nil {
					t.Fatal(err)
				}
			}
			if mutRng.Float64() < 0.3 {
				ni := nodes[mutRng.Intn(len(nodes))]
				p := 100 * mutRng.Float64()
				_ = exact.SetPower(ni, p)
				_ = ref.SetPower(ni, p)
			}
			if mutRng.Float64() < 0.2 {
				tb := 20 + 20*mutRng.Float64()
				_ = exact.SetBoundaryTemp(BoundaryID(0), tb)
				_ = ref.SetBoundaryTemp(BoundaryID(0), tb)
			}
			exact.Step(dt)
			ref.Step(dt)
			for _, id := range nodes {
				diff := math.Abs(exact.Temp(id) - ref.Temp(id))
				if diff > 1e-6 {
					t.Fatalf("trial %d step %d node %d: exact %.9f vs RK4 %.9f (|Δ|=%.3g)",
						trial, s, id, exact.Temp(id), ref.Temp(id), diff)
				}
				if math.IsNaN(exact.Temp(id)) {
					t.Fatalf("trial %d step %d: NaN temperature", trial, s)
				}
			}
		}
	}
}

// TestExactHandlesVaryingDt exercises propagator rebuilds on step-size
// changes, which thrash the cache but must stay correct.
func TestExactHandlesVaryingDt(t *testing.T) {
	exact := NewNetwork(0.01)
	ref := NewNetwork(0.01)
	ref.SetIntegrator(IntegratorRK4)
	for _, n := range []*Network{exact, ref} {
		a, _ := n.AddNode("a", 30, 50)
		b, _ := n.AddNode("b", 200, 30)
		amb := n.AddBoundary("amb", 24)
		if _, err := n.ConnectNodes(a, b, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := n.ConnectBoundary(b, amb, 0.8); err != nil {
			t.Fatal(err)
		}
		_ = n.SetPower(a, 80)
	}
	for i, dt := range []float64{1, 0.5, 2, 1, 1, 7.3, 0.25, 1} {
		exact.Step(dt)
		ref.Step(dt)
		for id := NodeID(0); id < 2; id++ {
			if diff := math.Abs(exact.Temp(id) - ref.Temp(id)); diff > 1e-6 {
				t.Fatalf("step %d (dt=%g) node %d: |Δ|=%.3g", i, dt, id, diff)
			}
		}
	}
}

// TestExactSteadyStateAgreement: after long integration under constant
// inputs the exact path must land on the analytic steady state.
func TestExactSteadyStateAgreement(t *testing.T) {
	n := NewNetwork(1)
	a, _ := n.AddNode("a", 30, 24)
	b, _ := n.AddNode("b", 200, 24)
	amb := n.AddBoundary("amb", 24)
	if _, err := n.ConnectNodes(a, b, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ConnectBoundary(b, amb, 0.8); err != nil {
		t.Fatal(err)
	}
	_ = n.SetPower(a, 60)
	want, err := n.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		n.Step(60)
	}
	for id := NodeID(0); id < 2; id++ {
		if diff := math.Abs(n.Temp(id) - want[id]); diff > 1e-6 {
			t.Fatalf("node %d: integrated %.9f vs analytic %.9f", id, n.Temp(id), want[id])
		}
	}
}

// TestRK4StepSubdivisionIsExactCount guards the drift fix: stepping dt in
// one call must equal stepping it as repeated maxStep-sized calls when dt
// is an integer multiple of maxStep, because both paths now take identical
// substep sequences.
func TestRK4StepSubdivisionIsExactCount(t *testing.T) {
	build := func() *Network {
		n := NewNetwork(1)
		n.SetIntegrator(IntegratorRK4)
		a, _ := n.AddNode("a", 30, 70)
		amb := n.AddBoundary("amb", 24)
		if _, err := n.ConnectBoundary(a, amb, 0.8); err != nil {
			t.Fatal(err)
		}
		_ = n.SetPower(a, 40)
		return n
	}
	one := build()
	many := build()
	one.Step(10)
	for i := 0; i < 10; i++ {
		many.Step(1)
	}
	if one.Temp(0) != many.Temp(0) {
		t.Fatalf("Step(10) = %.17g but 10×Step(1) = %.17g; substep subdivision drifted",
			one.Temp(0), many.Temp(0))
	}
}

// TestIntegratorSelection checks the plumbing and the default.
func TestIntegratorSelection(t *testing.T) {
	n := NewNetwork(1)
	if n.IntegratorInUse() != IntegratorExact {
		t.Fatal("exact integrator must be the default")
	}
	n.SetIntegrator(IntegratorRK4)
	if n.IntegratorInUse() != IntegratorRK4 {
		t.Fatal("SetIntegrator did not switch")
	}
}

// IntegratorInUse returns the currently selected stepping scheme.
func (n *Network) IntegratorInUse() Integrator { return n.integrator }
