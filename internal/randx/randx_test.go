package randx

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(1)
	const mean = 4.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Exponential(mean)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean) > 0.05 {
		t.Fatalf("exponential mean = %g, want ~%g", got, mean)
	}
}

func TestExponentialNonPositiveMean(t *testing.T) {
	s := New(1)
	if s.Exponential(0) != 0 || s.Exponential(-1) != 0 {
		t.Fatal("non-positive mean should return 0")
	}
}

func TestChoiceCoversAll(t *testing.T) {
	s := New(5)
	opts := []float64{1, 2, 3}
	seen := map[float64]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Choice(opts)
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("choice only saw %v", seen)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(5, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-5) > 0.05 || math.Abs(std-2) > 0.05 {
		t.Fatalf("normal mean=%g std=%g", mean, std)
	}
}

func TestIntN(t *testing.T) {
	s := New(7)
	for i := 0; i < 1000; i++ {
		if v := s.IntN(5); v < 0 || v >= 5 {
			t.Fatalf("IntN out of range: %d", v)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	// Drive a source through every distribution (each consumes a different
	// number of raw draws per call), snapshot, keep drawing, and check a
	// restored source replays the post-snapshot sequence bit-identically.
	s := New(12345)
	for i := 0; i < 257; i++ {
		s.Exponential(300)
		s.Choice([]float64{1, 2, 3})
		s.IntN(17)
		s.Normal(1, 0.25)
		s.Float64()
	}
	st := s.State()

	var want []float64
	for i := 0; i < 100; i++ {
		want = append(want, s.Exponential(50), s.Choice([]float64{4, 5, 6, 7}),
			s.Normal(0, 1), s.Float64(), float64(s.IntN(1000)))
	}

	r := New(0)
	r.Float64() // arbitrary prior state must not matter
	r.Restore(st)
	if got := r.State(); got != st {
		t.Fatalf("State after Restore = %+v, want %+v", got, st)
	}
	for i := 0; i < 100; i++ {
		got := []float64{r.Exponential(50), r.Choice([]float64{4, 5, 6, 7}),
			r.Normal(0, 1), r.Float64(), float64(r.IntN(1000))}
		for j, w := range want[i*5 : i*5+5] {
			if got[j] != w {
				t.Fatalf("draw %d/%d: got %v, want %v", i, j, got[j], w)
			}
		}
	}
}

func TestCountingSourceTransparent(t *testing.T) {
	// The counting wrapper must not perturb the sequence relative to a bare
	// rand.Rand over the same stdlib source.
	s := New(99)
	ref := rand.New(rand.NewSource(99))
	for i := 0; i < 1000; i++ {
		if got, want := s.Float64(), ref.Float64(); got != want {
			t.Fatalf("draw %d: %v != %v", i, got, want)
		}
	}
}

// TestRestorePaths checks both ways Restore reaches a State against a
// fresh New of the State's seed that skips the recorded draws: the
// fast-forward from a Source already on that seed and not past the draw
// count, and the re-seed for a different seed or a Source that has drawn
// past it. Each must then replay the reference sequence bit for bit.
func TestRestorePaths(t *testing.T) {
	src := New(2024)
	for i := 0; i < 50; i++ {
		src.Normal(0, 1)
		src.IntN(4)
	}
	st := src.State()
	ref := New(st.Seed)
	for ref.src.draws < st.Draws {
		ref.src.Uint64()
	}
	var want []float64
	for i := 0; i < 64; i++ {
		want = append(want, ref.Normal(0, 1), ref.Exponential(3), float64(ref.IntN(25)), ref.Float64())
	}

	for _, c := range []struct {
		name    string
		prepare func() *Source
		reseed  bool
	}{
		{"fresh", func() *Source { return New(st.Seed) }, false},
		{"behind", func() *Source { s := New(st.Seed); s.Float64(); s.Normal(0, 1); return s }, false},
		{"at", func() *Source { s := New(st.Seed); s.Restore(st); return s }, false},
		{"other seed", func() *Source { s := New(st.Seed + 1); s.Float64(); return s }, true},
		{"ahead", func() *Source {
			s := New(st.Seed)
			for s.src.draws <= st.Draws {
				s.Float64()
			}
			return s
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.prepare()
			rng := s.rng
			s.Restore(st)
			if got := s.State(); got != st {
				t.Fatalf("State after Restore = %+v, want %+v", got, st)
			}
			if reseeded := s.rng != rng; reseeded != c.reseed {
				t.Fatalf("re-seeded = %v, want %v", reseeded, c.reseed)
			}
			for i := 0; i < 64; i++ {
				got := []float64{s.Normal(0, 1), s.Exponential(3), float64(s.IntN(25)), s.Float64()}
				for j, w := range want[i*4 : i*4+4] {
					if got[j] != w {
						t.Fatalf("draw %d/%d: got %v, want %v", i, j, got[j], w)
					}
				}
			}
		})
	}
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }
