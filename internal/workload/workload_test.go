package workload

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestQueueConfigValidate(t *testing.T) {
	good := DefaultShellConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*QueueConfig){
		func(c *QueueConfig) { c.Servers = 0 },
		func(c *QueueConfig) { c.ArrivalRate = 0 },
		func(c *QueueConfig) { c.ServiceMean = 0 },
		func(c *QueueConfig) { c.Duration = 0 },
		func(c *QueueConfig) { c.SampleEvery = 0 },
		func(c *QueueConfig) { c.ArrivalRate = 10; c.ServiceMean = 10; c.Servers = 4 }, // ρ ≥ 1
	}
	for i, mutate := range cases {
		c := DefaultShellConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

// OfferedLoad returns ρ = λ/(c·μ), the expected long-run utilization.
func (c QueueConfig) OfferedLoad() float64 {
	return c.ArrivalRate * c.ServiceMean / float64(c.Servers)
}

// MeanUtilization returns the average of the utilization trace.
func (r QueueResult) MeanUtilization() units.Percent {
	if len(r.Utilization) == 0 {
		return 0
	}
	var s float64
	for _, u := range r.Utilization {
		s += float64(u)
	}
	return units.Percent(s / float64(len(r.Utilization)))
}

func TestOfferedLoad(t *testing.T) {
	c := DefaultShellConfig()
	want := 0.64 * 20 / 32
	if got := c.OfferedLoad(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ρ = %g, want %g", got, want)
	}
}

func TestSimulateMMCMeanUtilization(t *testing.T) {
	cfg := DefaultShellConfig()
	cfg.Duration = 48000 // long run for tight statistics
	res, err := SimulateMMC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(res.MeanUtilization())
	want := cfg.OfferedLoad() * 100
	if math.Abs(mean-want) > 5 {
		t.Fatalf("mean utilization %g%%, want ~%g%%", mean, want)
	}
}

func TestSimulateMMCBounds(t *testing.T) {
	res, err := SimulateMMC(DefaultShellConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Utilization) == 0 {
		t.Fatal("no samples")
	}
	for i, u := range res.Utilization {
		if u < 0 || u > 100 {
			t.Fatalf("sample %d = %v out of bounds", i, u)
		}
	}
	if res.JobsArrived == 0 || res.JobsFinished == 0 {
		t.Fatal("no jobs processed")
	}
	if res.JobsFinished > res.JobsArrived {
		t.Fatalf("finished %d > arrived %d", res.JobsFinished, res.JobsArrived)
	}
}

func TestSimulateMMCDeterministic(t *testing.T) {
	a, err := SimulateMMC(DefaultShellConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateMMC(DefaultShellConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Utilization) != len(b.Utilization) {
		t.Fatal("lengths differ")
	}
	for i := range a.Utilization {
		if a.Utilization[i] != b.Utilization[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a.Utilization[i], b.Utilization[i])
		}
	}
	// A different seed must actually change the trace.
	cfg := DefaultShellConfig()
	cfg.Seed++
	c, err := SimulateMMC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Utilization {
		if i < len(c.Utilization) && a.Utilization[i] != c.Utilization[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seed gave identical trace")
	}
}

func TestSimulateMMCHasVariation(t *testing.T) {
	res, err := SimulateMMC(DefaultShellConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := units.Percent(200), units.Percent(-1)
	for _, u := range res.Utilization {
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if hi-lo < 10 {
		t.Fatalf("shell workload too flat: range [%v, %v]", lo, hi)
	}
}

func TestSimulateMMCInvalid(t *testing.T) {
	bad := DefaultShellConfig()
	bad.Servers = 0
	if _, err := SimulateMMC(bad); err == nil {
		t.Fatal("invalid config should error")
	}
}

func TestTest1Ramp(t *testing.T) {
	p, err := Test1Ramp()
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration() != TestDuration {
		t.Fatalf("duration = %g", p.Duration())
	}
	if p.Target(0) != 0 {
		t.Fatal("should start at 0")
	}
	if p.Target(TestDuration/2) != 100 {
		t.Fatal("should peak at 100 midway")
	}
	if got := float64(p.Target(TestDuration / 4)); math.Abs(got-50) > 1e-9 {
		t.Fatalf("quarter point = %g", got)
	}
	if got := float64(p.Target(TestDuration)); got > 1e-9 {
		t.Fatalf("end = %g", got)
	}
}

func TestTest2Periods(t *testing.T) {
	p, err := Test2Periods()
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration() != TestDuration {
		t.Fatalf("duration = %g", p.Duration())
	}
	minute := 60.0
	// 5-minute alternation at the start.
	if p.Target(2*minute) != 90 || p.Target(7*minute) != 10 {
		t.Fatal("5-minute alternation wrong")
	}
	// 10-minute periods.
	if p.Target(25*minute) != 90 || p.Target(35*minute) != 10 {
		t.Fatal("10-minute alternation wrong")
	}
	// 15-minute periods.
	if p.Target(45*minute) != 90 || p.Target(60*minute) != 10 {
		t.Fatal("15-minute alternation wrong")
	}
}

func TestTest3RandomSteps(t *testing.T) {
	p, err := Test3RandomSteps(99)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic per seed.
	q, _ := Test3RandomSteps(99)
	changes := 0
	prev := p.Target(0)
	for ts := 0.0; ts < TestDuration; ts += 300 {
		if p.Target(ts) != q.Target(ts) {
			t.Fatal("same seed gave different profiles")
		}
		if cur := p.Target(ts); cur != prev {
			changes++
			prev = cur
		}
		// Levels are multiples of 10.
		if v := float64(p.Target(ts)); math.Mod(v, 10) != 0 {
			t.Fatalf("level %g not a multiple of 10", v)
		}
	}
	if changes < 5 {
		t.Fatalf("only %d level changes in 80 min — too static", changes)
	}
}

func TestTest4Shell(t *testing.T) {
	p, err := Test4Shell(7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration() < TestDuration-30 || p.Duration() > TestDuration+30 {
		t.Fatalf("duration = %g", p.Duration())
	}
	var sum float64
	n := 0
	for ts := 0.0; ts < TestDuration; ts += 10 {
		sum += float64(p.Target(ts))
		n++
	}
	mean := sum / float64(n)
	if mean < 20 || mean > 60 {
		t.Fatalf("shell mean utilization = %g%%, want ~40%%", mean)
	}
}

func TestAllTestsAndByID(t *testing.T) {
	all, err := AllTests(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("tests = %d", len(all))
	}
	for i, w := range all {
		if w.ID != i+1 {
			t.Fatalf("test %d has id %d", i, w.ID)
		}
		if w.Name == "" || w.Profile == nil {
			t.Fatalf("test %d incomplete", i)
		}
	}
	got, err := ByID(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 3 {
		t.Fatalf("ByID(3) = %+v", got)
	}
	if _, err := ByID(9, 1); err == nil {
		t.Fatal("unknown id should error")
	}
}
