// Package randx wraps math/rand with the seeded distributions the workload
// generators need: exponential inter-arrival and service times for the
// Test-4 shell workload (Poisson arrivals, exponential service, after
// Meisner & Wenisch's stochastic queuing simulation) and uniform choices for
// the Test-3 random-step profile.
//
// Every generator is explicitly seeded so experiments are reproducible
// run-to-run, which the paper's deterministic load profiles also rely on.
package randx

import "math/rand"

// Source is a deterministic random source for workload synthesis.
type Source struct {
	rng  *rand.Rand
	src  *countingSrc
	seed int64
}

// countingSrc wraps the stdlib generator and counts every draw taken from
// it. math/rand's derived distributions consume the raw stream exclusively
// through Int63/Uint64 (each advancing the generator by exactly one internal
// step), so (seed, draws) fully determines the generator state: Restore
// re-seeds and discards the counted number of draws to land bit-identically
// where the snapshot was taken. Implementing rand.Source64 is load-bearing —
// without Uint64 the wrapped rand.Rand would synthesize 64-bit draws from
// two Int63 calls and the sequence would diverge from an unwrapped Source.
type countingSrc struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSrc) Int63() int64 { c.draws++; return c.src.Int63() }

func (c *countingSrc) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *countingSrc) Seed(seed int64) { c.src.Seed(seed); c.draws = 0 }

// State is the serializable state of a Source: the construction seed and
// the number of raw draws consumed since seeding.
type State struct {
	Seed  int64
	Draws uint64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	src := &countingSrc{src: rand.NewSource(seed).(rand.Source64)}
	return &Source{rng: rand.New(src), src: src, seed: seed}
}

// State captures the Source for a checkpoint.
func (s *Source) State() State { return State{Seed: s.seed, Draws: s.src.draws} }

// Restore moves the Source to a captured State, after which the draw
// sequence continues bit-identically to the snapshotted generator. When
// the Source already runs the State's seed and has taken no more draws
// than it records — a fresh New(st.Seed) being the common case — it
// fast-forwards from where it is. Otherwise it re-seeds, the costly part
// of math/rand's generator, and discards the recorded number of draws.
func (s *Source) Restore(st State) {
	if st.Seed != s.seed || st.Draws < s.src.draws {
		s.src = &countingSrc{src: rand.NewSource(st.Seed).(rand.Source64)}
		s.rng = rand.New(s.src)
		s.seed = st.Seed
	}
	for s.src.draws < st.Draws {
		s.src.Uint64()
	}
}

// Exponential draws from an exponential distribution with the given mean.
// A non-positive mean returns 0.
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.rng.ExpFloat64() * mean
}

// IntN returns a uniform int in [0, n). n must be positive.
func (s *Source) IntN(n int) int { return s.rng.Intn(n) }

// Choice returns a uniformly chosen element of xs. It panics on an empty
// slice, mirroring rand.Intn semantics.
func (s *Source) Choice(xs []float64) float64 { return xs[s.rng.Intn(len(xs))] }

// Normal draws from a normal distribution with the given mean and standard
// deviation.
func (s *Source) Normal(mean, std float64) float64 {
	return s.rng.NormFloat64()*std + mean
}
