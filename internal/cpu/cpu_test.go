package cpu

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/units"
)

func TestT3Topology(t *testing.T) {
	topo := T3Topology()
	if topo.Threads() != 256 {
		t.Fatalf("threads = %d, want 256", topo.Threads())
	}
	if topo.Cores() != 32 {
		t.Fatalf("cores = %d, want 32", topo.Cores())
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidate(t *testing.T) {
	for _, bad := range []Topology{
		{0, 16, 8}, {2, 0, 8}, {2, 16, 0}, {-1, 16, 8},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("topology %+v should be invalid", bad)
		}
	}
}

func TestNewComplexRejectsBadTopology(t *testing.T) {
	if _, err := NewComplex(Topology{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestUniformLoad(t *testing.T) {
	c, err := NewComplex(T3Topology())
	if err != nil {
		t.Fatal(err)
	}
	if c.Utilization() != 0 {
		t.Fatal("new complex not idle")
	}
	c.SetUniformLoad(60)
	if got := c.Utilization(); got != 60 {
		t.Fatalf("utilization = %v", got)
	}
	for core := 0; core < 32; core++ {
		u, err := c.CoreUtilization(core)
		if err != nil {
			t.Fatal(err)
		}
		if u != 60 {
			t.Fatalf("core %d = %v", core, u)
		}
	}
	// Clamping.
	c.SetUniformLoad(250)
	if c.Utilization() != 100 {
		t.Fatal("over-100 load not clamped")
	}
}

func TestPerCoreLoad(t *testing.T) {
	c, _ := NewComplex(T3Topology())
	if err := c.SetCoreLoad(0, 100); err != nil {
		t.Fatal(err)
	}
	want := 100.0 / 32
	if got := float64(c.Utilization()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("utilization = %g, want %g", got, want)
	}
	if err := c.SetCoreLoad(-1, 10); err == nil {
		t.Error("negative core should error")
	}
	if err := c.SetCoreLoad(32, 10); err == nil {
		t.Error("out-of-range core should error")
	}
	if _, err := c.CoreUtilization(99); err == nil {
		t.Error("out-of-range read should error")
	}
}

func TestSocketUtilization(t *testing.T) {
	c, _ := NewComplex(T3Topology())
	// Load only socket 0's cores.
	for i := 0; i < 16; i++ {
		if err := c.SetCoreLoad(i, 80); err != nil {
			t.Fatal(err)
		}
	}
	s0, err := c.SocketUtilization(0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.SocketUtilization(1)
	if err != nil {
		t.Fatal(err)
	}
	if s0 != 80 || s1 != 0 {
		t.Fatalf("sockets = %v / %v", s0, s1)
	}
	if _, err := c.SocketUtilization(2); err == nil {
		t.Error("bad socket should error")
	}
}

func TestVISensors(t *testing.T) {
	c, _ := NewComplex(T3Topology())
	c.SetUniformLoad(100)
	const cpuPower = 70.0 // active + leakage at full load
	var totalAmps float64
	for core := 0; core < 32; core++ {
		v, a, err := c.VI(core, units.Watts(cpuPower))
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 || a <= 0 {
			t.Fatalf("core %d: V=%g A=%g", core, v, a)
		}
		totalAmps += a
	}
	// Power reconstructed from V·I must equal the input power.
	if got := totalAmps * 1.0; math.Abs(got-cpuPower) > 1e-6 {
		t.Fatalf("sum(V·I) = %g, want %g", got, cpuPower)
	}
	if _, _, err := c.VI(99, 10); err == nil {
		t.Error("bad core should error")
	}
}

func TestVIIdleSplitsEvenly(t *testing.T) {
	c, _ := NewComplex(T3Topology())
	// All idle: every core should read the idle current.
	_, a0, _ := c.VI(0, 15)
	_, a1, _ := c.VI(31, 15)
	if math.Abs(a0-a1) > 1e-12 {
		t.Fatalf("idle currents differ: %g vs %g", a0, a1)
	}
	// Power below the idle floor must not produce negative currents.
	_, a, _ := c.VI(0, 0)
	if a <= 0 {
		t.Fatalf("current %g must stay positive", a)
	}
}

func TestVIProportionalToLoad(t *testing.T) {
	c, _ := NewComplex(T3Topology())
	_ = c.SetCoreLoad(0, 100) // only core 0 busy
	_, busy, _ := c.VI(0, 50)
	_, idle, _ := c.VI(1, 50)
	if busy <= idle {
		t.Fatalf("busy core current %g should exceed idle %g", busy, idle)
	}
}

// TestSensorPowerSumMatchesVILoop pins the single-pass readout to the
// per-core VI loop it replaces: the two must agree bit-for-bit across
// uniform, skewed and idle load patterns.
func TestSensorPowerSumMatchesVILoop(t *testing.T) {
	c, _ := NewComplex(T3Topology())
	patterns := []func(){
		func() { c.SetUniformLoad(0) },
		func() { c.SetUniformLoad(70) },
		func() { c.SetUniformLoad(100) },
		func() {
			c.SetUniformLoad(0)
			for i := 0; i < 7; i++ {
				_ = c.SetCoreLoad(i*3, units.Percent(10+10*i))
			}
		},
	}
	for pi, apply := range patterns {
		apply()
		for _, p := range []units.Watts{0, 5, 35, 70, 120} {
			var loop float64
			for core := 0; core < c.Topology().Cores(); core++ {
				v, a, err := c.VI(core, p)
				if err != nil {
					t.Fatal(err)
				}
				loop += v * a
			}
			if got := c.SensorPowerSum(p); got != loop {
				t.Fatalf("pattern %d power %v: SensorPowerSum %.17g != VI loop %.17g", pi, p, got, loop)
			}
		}
	}
}

// CoreUtilization returns one core's utilization.
func (c *Complex) CoreUtilization(core int) (units.Percent, error) {
	if core < 0 || core >= len(c.util) {
		return 0, fmt.Errorf("cpu: core %d out of range [0,%d)", core, len(c.util))
	}
	return units.Percent(c.util[core]), nil
}

// Threads returns the total hardware thread count.
func (t Topology) Threads() int { return t.Sockets * t.CoresPerSocket * t.ThreadsPerCore }

// TestStateRoundTrip: a uniformly loaded complex checkpoints its one value
// and no per-core loads, an uneven one every core, and both restore
// exactly; a uniform state that still carries every core (older
// checkpoints) restores too, and a state of the wrong width errors.
func TestStateRoundTrip(t *testing.T) {
	topo := T3Topology()
	uniform, _ := NewComplex(topo)
	uniform.SetUniformLoad(70)
	uneven, _ := NewComplex(topo)
	uneven.SetUniformLoad(40)
	_ = uneven.SetCoreLoad(3, 90)

	st := uniform.State()
	if len(st.Util) != 0 || !st.Uniform || st.UniformVal != 70 {
		t.Fatalf("uniform state %+v, want no per-core loads and 70 %%", st)
	}
	if st := uneven.State(); len(st.Util) != topo.Cores() || st.Uniform {
		t.Fatalf("uneven state carries %d cores (uniform %v), want %d", len(st.Util), st.Uniform, topo.Cores())
	}
	full := State{Util: make([]float64, topo.Cores()), Uniform: true, UniformVal: 70}
	for i := range full.Util {
		full.Util[i] = 70
	}
	for _, tc := range []struct {
		name string
		st   State
		want *Complex
	}{
		{"uniform", uniform.State(), uniform},
		{"uneven", uneven.State(), uneven},
		{"uniform with every core", full, uniform},
	} {
		c, _ := NewComplex(topo)
		_ = c.SetCoreLoad(0, 10) // restore must overwrite whatever was there
		if err := c.SetState(tc.st); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.uniform != tc.want.uniform || c.uniformVal != tc.want.uniformVal {
			t.Fatalf("%s: restored uniform %v/%g, want %v/%g", tc.name, c.uniform, c.uniformVal, tc.want.uniform, tc.want.uniformVal)
		}
		for i := range c.util {
			if c.util[i] != tc.want.util[i] {
				t.Fatalf("%s: core %d restored at %g, want %g", tc.name, i, c.util[i], tc.want.util[i])
			}
		}
		if got, want := c.Utilization(), tc.want.Utilization(); got != want {
			t.Fatalf("%s: utilization %g, want %g", tc.name, got, want)
		}
	}
	for _, st := range []State{
		{Uniform: false, UniformVal: 40},           // uneven but carries no cores
		{Util: make([]float64, 5), Uniform: false}, // wrong width
		{Util: make([]float64, 5), Uniform: true},  // wrong width, even when uniform
	} {
		c, _ := NewComplex(topo)
		if err := c.SetState(st); err == nil {
			t.Errorf("state with %d cores (uniform %v) restored into %d cores", len(st.Util), st.Uniform, topo.Cores())
		}
	}
}
