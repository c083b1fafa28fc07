package obs

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c", []float64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil metric handles")
	}
	// Every hot-path op must be a no-op, not a panic.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.SetMax(9)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil handles must read zero")
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
}

func TestNilHandleOpsDoNotAllocate(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.SetMax(2)
		h.Observe(1)
	}); n != 0 {
		t.Fatalf("nil-handle ops allocated %v times per run", n)
	}
}

func TestLiveHandleOpsDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpBuckets(1, 2, 8))
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.SetMax(2)
		h.Observe(3)
	}); n != 0 {
		t.Fatalf("live-handle ops allocated %v times per run", n)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("k.steps")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("k.steps") != c {
		t.Fatalf("re-registering a counter must return the same handle")
	}

	g := r.Gauge("k.hw")
	g.SetMax(3)
	g.SetMax(1)
	if g.Value() != 3 {
		t.Fatalf("SetMax gauge = %v, want 3", g.Value())
	}
	g.Set(0.5)
	if g.Value() != 0.5 {
		t.Fatalf("Set gauge = %v, want 0.5", g.Value())
	}

	h := r.Histogram("k.win", []float64{1, 4, 16})
	for _, v := range []float64{1, 1, 3, 20, 16} {
		h.Observe(v)
	}
	v := h.view()
	if v.Count != 5 || v.Sum != 41 {
		t.Fatalf("hist count=%d sum=%v, want 5/41", v.Count, v.Sum)
	}
	want := []uint64{2, 3, 4, 5} // cumulative: <=1, <=4, <=16, +Inf
	for i, c := range v.Counts {
		if c != want[i] {
			t.Fatalf("cumulative bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatalf("gauge under a counter's name must panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("x", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering with different bounds must panic")
		}
	}()
	r.Histogram("x", []float64{1, 3})
}

func TestWriteTextSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Gauge("c.gauge").Set(1.25)
	r.Histogram("a.hist", []float64{1, 2}).Observe(2)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `a.hist.bucket{le="1"} 0
a.hist.bucket{le="2"} 1
a.hist.bucket{le="+Inf"} 1
a.hist.sum 2
a.hist.count 1
b.count 2
c.gauge 1.25
`
	if buf.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("kernel.pin.trip-guard").Add(3)
	r.Histogram("kernel.window.len", []float64{1}).Observe(1)
	r.Gauge("sched.backlog.highwater").SetMax(7)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE kernel_pin_trip_guard counter
kernel_pin_trip_guard 3
# TYPE kernel_window_len histogram
kernel_window_len_bucket{le="1"} 1
kernel_window_len_bucket{le="+Inf"} 1
kernel_window_len_sum 1
kernel_window_len_count 1
# TYPE sched_backlog_highwater gauge
sched_backlog_highwater 7
`
	if buf.String() != want {
		t.Fatalf("WritePrometheus:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"cpu0.temp1":   "cpu0_temp1",
		"rack00.pue":   "rack00_pue",
		"trip-guard":   "trip_guard",
		"0weird":       "_0weird",
		"already_fine": "already_fine",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Fatalf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestConcurrentCommutativeOpsAreExact pins the shared-registry story: int
// counter adds, SetMax gauges and integer-valued histogram observations
// from many goroutines land on exact, order-independent values.
func TestConcurrentCommutativeOpsAreExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(3)
				g.SetMax(float64(w*per + i))
				h.Observe(float64(i%7 + 1))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per*3 {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per*3)
	}
	if g.Value() != workers*per-1 {
		t.Fatalf("gauge max = %v, want %v", g.Value(), workers*per-1)
	}
	v := h.view()
	wantSum := 0.0
	for i := 0; i < per; i++ {
		wantSum += float64(i%7 + 1)
	}
	wantSum *= workers
	if v.Count != workers*per || v.Sum != wantSum {
		t.Fatalf("hist count=%d sum=%v, want %d/%v", v.Count, v.Sum, workers, wantSum)
	}
	if math.IsNaN(v.Sum) {
		t.Fatalf("hist sum is NaN")
	}
}
