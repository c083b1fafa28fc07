package thermal

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// buildRC returns a single node connected to a boundary: the canonical
// first-order RC with time constant R·C.
func buildRC(t *testing.T, c, r, tAmb, t0 float64) (*Network, NodeID) {
	t.Helper()
	n := NewNetwork(0.5)
	id, err := n.AddNode("die", c, t0)
	if err != nil {
		t.Fatal(err)
	}
	amb := n.AddBoundary("ambient", tAmb)
	if _, err := n.ConnectBoundary(id, amb, 1/r); err != nil {
		t.Fatal(err)
	}
	return n, id
}

func TestRCStepResponse(t *testing.T) {
	// T(t) = Tamb + (T0-Tamb)·e^{-t/RC}; with R=2, C=10 → τ=20 s.
	n, id := buildRC(t, 10, 2, 25, 85)
	n.Step(20) // one time constant
	want := 25 + 60*math.Exp(-1)
	if got := n.Temp(id); math.Abs(got-want) > 0.01 {
		t.Fatalf("after 1τ: %g, want %g", got, want)
	}
}

func TestRCHeating(t *testing.T) {
	// Power P into the node settles at Tamb + P·R.
	n, id := buildRC(t, 10, 2, 25, 25)
	if err := n.SetPower(id, 30); err != nil {
		t.Fatal(err)
	}
	n.Step(500) // 25 time constants
	want := 25.0 + 30*2
	if got := n.Temp(id); math.Abs(got-want) > 0.01 {
		t.Fatalf("steady heating: %g, want %g", got, want)
	}
}

func TestSteadyStateMatchesLongIntegration(t *testing.T) {
	n, id := buildRC(t, 10, 2, 25, 60)
	if err := n.SetPower(id, 17); err != nil {
		t.Fatal(err)
	}
	ss, err := n.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	n.Step(1000)
	if math.Abs(ss[0]-n.Temp(id)) > 0.01 {
		t.Fatalf("steady state %g vs integrated %g", ss[0], n.Temp(id))
	}
}

func TestTwoNodeChain(t *testing.T) {
	// die --R1-- sink --R2-- ambient. Steady: Tsink = Tamb + P·R2,
	// Tdie = Tsink + P·R1.
	n := NewNetwork(0.5)
	die, _ := n.AddNode("die", 33, 24)
	sink, _ := n.AddNode("sink", 230, 24)
	amb := n.AddBoundary("amb", 24)
	if _, err := n.ConnectNodes(die, sink, 1/0.3); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ConnectBoundary(sink, amb, 1/0.8); err != nil {
		t.Fatal(err)
	}
	if err := n.SetPower(die, 40); err != nil {
		t.Fatal(err)
	}
	ss, err := n.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	wantSink := 24 + 40*0.8
	wantDie := wantSink + 40*0.3
	if math.Abs(ss[0]-wantDie) > 1e-9 || math.Abs(ss[1]-wantSink) > 1e-9 {
		t.Fatalf("steady = %v, want die %g sink %g", ss, wantDie, wantSink)
	}
	// Long integration converges to the same values.
	n.Step(5000)
	if math.Abs(n.Temp(die)-wantDie) > 0.05 || math.Abs(n.Temp(sink)-wantSink) > 0.05 {
		t.Fatalf("integrated = %g/%g", n.Temp(die), n.Temp(sink))
	}
}

func TestFastAndSlowTimeConstants(t *testing.T) {
	// The paper's Fig 1(b): a power step produces a fast die jump within
	// 30 s and a much slower tail. Verify the two-node model shows a
	// distinctly faster initial response on the die than on the sink.
	n := NewNetwork(0.5)
	die, _ := n.AddNode("die", 33, 24)
	sink, _ := n.AddNode("sink", 230, 24)
	amb := n.AddBoundary("amb", 24)
	_, _ = n.ConnectNodes(die, sink, 1/0.3)
	_, _ = n.ConnectBoundary(sink, amb, 1/0.8)
	_ = n.SetPower(die, 22)

	n.Step(30)
	dieRise30 := n.Temp(die) - 24
	sinkRise30 := n.Temp(sink) - 24
	if dieRise30 < 4 || dieRise30 > 9 {
		t.Fatalf("die rise after 30s = %g, want the paper's 5-8°C fast jump", dieRise30)
	}
	if sinkRise30 > dieRise30/2 {
		t.Fatalf("sink rise %g should lag die rise %g", sinkRise30, dieRise30)
	}
}

func TestSetConductanceChangesEquilibrium(t *testing.T) {
	n := NewNetwork(0.5)
	id, _ := n.AddNode("n", 10, 25)
	amb := n.AddBoundary("amb", 25)
	l, err := n.ConnectBoundary(id, amb, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	_ = n.SetPower(id, 10)
	ss1, _ := n.SteadyState()
	if err := n.SetConductance(l, 2.0); err != nil {
		t.Fatal(err)
	}
	ss2, _ := n.SteadyState()
	if !(ss2[0] < ss1[0]) {
		t.Fatalf("more conductance should cool: %g vs %g", ss2[0], ss1[0])
	}
	if math.Abs(ss1[0]-35) > 1e-9 || math.Abs(ss2[0]-30) > 1e-9 {
		t.Fatalf("equilibria %g/%g, want 35/30", ss1[0], ss2[0])
	}
}

func TestBoundaryTempShift(t *testing.T) {
	n, id := buildRC(t, 5, 1, 20, 20)
	ss, _ := n.SteadyState()
	if ss[0] != 20 {
		t.Fatalf("no-power steady = %g", ss[0])
	}
	// Hotter inlet shifts equilibrium up by the same amount.
	bID := BoundaryID(0)
	if err := n.SetBoundaryTemp(bID, 30); err != nil {
		t.Fatal(err)
	}
	ss, _ = n.SteadyState()
	if ss[0] != 30 {
		t.Fatalf("shifted steady = %g", ss[0])
	}
	_ = id
}

func TestErrorPaths(t *testing.T) {
	n := NewNetwork(1)
	if _, err := n.AddNode("bad", 0, 20); err == nil {
		t.Error("zero capacitance should error")
	}
	if _, err := n.AddNode("bad", -1, 20); err == nil {
		t.Error("negative capacitance should error")
	}
	id, _ := n.AddNode("ok", 1, 20)
	if _, err := n.ConnectNodes(id, NodeID(99), 1); err == nil {
		t.Error("unknown node should error")
	}
	if _, err := n.ConnectBoundary(id, BoundaryID(0), 1); err == nil {
		t.Error("unknown boundary should error")
	}
	amb := n.AddBoundary("amb", 20)
	if _, err := n.ConnectBoundary(id, amb, -1); err == nil {
		t.Error("negative conductance should error")
	}
	if err := n.SetConductance(LinkID(42), 1); err == nil {
		t.Error("unknown link should error")
	}
	if err := n.SetPower(NodeID(42), 1); err == nil {
		t.Error("unknown node power should error")
	}
	if err := n.SetBoundaryTemp(BoundaryID(42), 1); err == nil {
		t.Error("unknown boundary temp should error")
	}
	if err := n.SetTemp(NodeID(42), 1); err == nil {
		t.Error("unknown node SetTemp should error")
	}
}

func TestStepNoopOnEmptyOrZeroDt(t *testing.T) {
	n := NewNetwork(1)
	n.Step(10) // no nodes: must not panic
	id, _ := n.AddNode("n", 1, 33)
	n.Step(0)
	n.Step(-5)
	if n.Temp(id) != 33 {
		t.Fatal("zero/negative dt changed state")
	}
}

func TestSettle(t *testing.T) {
	n, id := buildRC(t, 10, 2, 25, 99)
	_ = n.SetPower(id, 5)
	if err := n.Settle(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Temp(id)-35) > 1e-9 {
		t.Fatalf("settled temp = %g, want 35", n.Temp(id))
	}
}

func TestEnergyConservationProperty(t *testing.T) {
	// With no power input, temperatures must relax monotonically toward the
	// boundary from any initial condition (no oscillation, no divergence).
	f := func(rawT0 float64) bool {
		t0 := math.Mod(math.Abs(rawT0), 200) // keep in a physical range
		n := NewNetwork(0.5)
		id, err := n.AddNode("n", 10, t0)
		if err != nil {
			return false
		}
		amb := n.AddBoundary("amb", 25)
		if _, err := n.ConnectBoundary(id, amb, 0.5); err != nil {
			return false
		}
		prevDist := math.Abs(n.Temp(id) - 25)
		for i := 0; i < 20; i++ {
			n.Step(5)
			dist := math.Abs(n.Temp(id) - 25)
			if dist > prevDist+1e-9 {
				return false
			}
			prevDist = dist
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNumNodes(t *testing.T) {
	n := NewNetwork(1)
	if n.NumNodes() != 0 {
		t.Fatal("empty network has nodes")
	}
	_, _ = n.AddNode("a", 1, 0)
	_, _ = n.AddNode("b", 1, 0)
	if n.NumNodes() != 2 {
		t.Fatal("wrong node count")
	}
}

// TestConductanceRule: wherever a conductance enters — wired, set, or
// restored live or in a propagator key — it must be finite and
// non-negative, and a restored key's step finite and positive. Each
// hostile field errors naming itself, and a rejected state restores
// nothing. Non-finite temperatures and powers still restore, so a diverged
// run's diagnostic checkpoint does.
func TestConductanceRule(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	n, _ := t3Net(t)
	n.Step(1)
	for _, g := range []float64{-5, nan, inf} {
		if _, err := n.ConnectNodes(0, 1, g); err == nil || !strings.Contains(err.Error(), "conductance") {
			t.Errorf("ConnectNodes(%g) = %v, want a conductance error", g, err)
		}
		if _, err := n.ConnectBoundary(0, 0, g); err == nil || !strings.Contains(err.Error(), "conductance") {
			t.Errorf("ConnectBoundary(%g) = %v, want a conductance error", g, err)
		}
		if err := n.SetConductance(1, g); err == nil || !strings.Contains(err.Error(), "link 1 conductance") {
			t.Errorf("SetConductance(%g) = %v, want a link 1 conductance error", g, err)
		}
	}
	good := n.State()
	for _, tc := range []struct {
		field string
		edit  func(st *State)
	}{
		{"state Conductances[0] -5", func(st *State) { st.Conductances[0] = -5 }},
		{"state Conductances[1] NaN", func(st *State) { st.Conductances[1] = nan }},
		{"state Conductances[3] +Inf", func(st *State) { st.Conductances[3] = inf }},
		{"state Props[0].H -3", func(st *State) { st.Props[0].H = -3 }},
		{"state Props[0].H 0", func(st *State) { st.Props[0].H = 0 }},
		{"state Props[0].H NaN", func(st *State) { st.Props[0].H = nan }},
		{"state Props[0].H +Inf", func(st *State) { st.Props[0].H = inf }},
		{"state Props[0].Gs[2] NaN", func(st *State) { st.Props[0].Gs[2] = nan }},
		{"state Props[0].Gs[0] -1", func(st *State) { st.Props[0].Gs[0] = -1 }},
		{"state Props[0].Gs[1] +Inf", func(st *State) { st.Props[0].Gs[1] = inf }},
		{"state Props[0] has 1 conductances", func(st *State) { st.Props[0].Gs = st.Props[0].Gs[:1] }},
	} {
		st := n.State()
		tc.edit(&st)
		r, _ := t3Net(t)
		r.Step(1)
		want := r.State()
		if err := r.SetState(st); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: SetState = %v, want an error naming it", tc.field, err)
		}
		if got := r.State(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a rejected state changed the network", tc.field)
		}
	}
	diverged := good
	diverged.Temps = append([]float64{nan, inf}, good.Temps[2:]...)
	diverged.PowerIn = append([]float64{inf}, good.PowerIn[1:]...)
	r, _ := t3Net(t)
	if err := r.SetState(diverged); err != nil {
		t.Fatalf("a diverged state with valid conductances did not restore: %v", err)
	}
}
