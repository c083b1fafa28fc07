package thermal

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// Integrator selects the time-stepping scheme for Network.Step.
type Integrator int

const (
	// IntegratorExact advances the network with the exact discrete
	// propagator T(t+h) = Ad·T + Phi·u of the linear system, where
	// Ad = exp(−C⁻¹G·h) and Phi its integral. The pair is cached and only
	// rebuilt when the conductance set, the node set or the step size
	// changes, so in steady operation a step of any length costs one small
	// matvec. This is the default.
	IntegratorExact Integrator = iota
	// IntegratorRK4 forces the classical fixed-step RK4 fallback, the
	// original integration path kept as ground truth for the exact scheme.
	IntegratorRK4
)

// NodeID identifies a capacitive node in the network.
type NodeID int

// BoundaryID identifies a fixed-temperature boundary.
type BoundaryID int

// LinkID identifies a conductance between two points of the network.
type LinkID int

type node struct {
	name    string
	capac   float64 // J/°C
	temp    float64 // °C
	powerIn float64 // W injected this step
}

type boundary struct {
	name string
	temp float64
}

type link struct {
	a          NodeID // always a capacitive node
	b          NodeID // capacitive node when !toBoundary
	bBound     BoundaryID
	toBoundary bool
	g          float64 // conductance W/°C
}

// propagator caches the exact discretization of one linear system for one
// step size: next = ad·T + phi·u with u the per-capacitance affine input
// (injected power plus boundary inflow). Power and boundary temperatures
// enter only through u, recomputed each step, so a cached entry survives
// them. Each entry is keyed on (conductance-set, h): gs is a snapshot of
// every link's conductance at build time, so a step matches an entry only
// when the system matrix −C⁻¹G it was built from is the current one. gen
// stamps the conductance generation the entry last matched, making the
// steady-state lookup a three-int compare instead of an O(#links) float
// walk (see propagatorFor).
type propagator struct {
	failed bool // build attempt failed for this key; don't retry it
	h      float64
	m      int
	gen    uint64     // conductance generation this entry last matched
	gs     []float64  // per-link conductances this entry was built for
	ad     []float64  // m×m row-major exp(−C⁻¹G·h)
	phi    []float64  // m×m row-major ∫₀ʰ exp(−C⁻¹G·s) ds
	twin   []twinCopy // per block, its twin source (see block.go)
}

// propCacheSize bounds the propagator LRU. A server alternates between a
// handful of operating points (a few fan speeds × at most a couple of step
// sizes), so a small cache captures the working set without letting a
// sweeping workload hold stale matrices alive.
const propCacheSize = 8

// Network is a mutable RC thermal network. Steps use the cached exact
// exponential propagator by default, with fixed-step RK4 as the selectable
// fallback.
type Network struct {
	nodes      []node
	boundaries []boundary
	links      []link

	integrator Integrator
	props      []*propagator // LRU of exact propagators, most recent first
	propBuilds int           // lifetime build count, observable in tests
	propHits   int           // lifetime cache hits (fast or slow path)
	propMisses int           // lifetime lookup failures (each triggers a build)
	driftStops int           // macro doubling ladders cut short by the drift cap
	condGen    uint64        // bumped whenever any link conductance changes
	u, t       []float64     // exact-step scratch, sized by the first step

	plan  blockPlan           // block structure of the links, derived state
	expm  mathx.ExpmWorkspace // propagator-build scratch
	sys   []float64           // m×m system matrix −C⁻¹G, propagator-build scratch
	macro macroScratch        // linearized macro-step work buffers

	// RK4 integration scratch
	state   []float64
	scratch [][]float64
	maxStep float64

	// steady-state solve scratch, reused across calls
	ssA [][]float64
	ssB []float64
}

// NewNetwork returns an empty network. maxStep bounds the internal
// integration step in seconds (values ≤ 0 default to 1 s); Step subdivides
// longer intervals for accuracy and stability.
func NewNetwork(maxStep float64) *Network {
	if maxStep <= 0 {
		maxStep = 1
	}
	return &Network{maxStep: maxStep}
}

// SetIntegrator selects the stepping scheme. Switching is cheap; the exact
// propagator is rebuilt lazily on the next Step.
func (n *Network) SetIntegrator(i Integrator) { n.integrator = i }

// invalidate drops every cached propagator; called on topology mutations
// (node or link additions), which change the meaning of the conductance
// vector the cache entries are keyed on. Plain conductance changes do NOT
// invalidate: entries carry their own conductance snapshot, so a changed
// value simply stops matching and the previous operating point's entry
// stays warm for when the fans switch back.
func (n *Network) invalidate() {
	n.props = n.props[:0]
	n.condGen++ // the conductance vector changed meaning, not just value
	n.plan.stale = true
}

// sizeScratch sizes every per-step work buffer to the node count. Step
// calls it when the count moved, so a network allocates its buffers once,
// at its first step, rather than at every node addition, and Step stays
// allocation-free at steady state (asserted by testing.AllocsPerRun in the
// server and rack packages).
func (n *Network) sizeScratch() {
	m := len(n.nodes)
	n.u = make([]float64, m)
	n.t = make([]float64, m)
	n.state = make([]float64, m)
	n.scratch = mathx.NewScratch(m)
}

// AddNode adds a capacitive node with the given heat capacity (J/°C) and
// initial temperature. Capacitance must be positive.
func (n *Network) AddNode(name string, capacitance, initial float64) (NodeID, error) {
	if capacitance <= 0 {
		return 0, fmt.Errorf("thermal: node %q capacitance must be positive, got %g", name, capacitance)
	}
	n.nodes = append(n.nodes, node{name: name, capac: capacitance, temp: initial})
	n.invalidate()
	return NodeID(len(n.nodes) - 1), nil
}

// AddBoundary adds a fixed-temperature reservoir.
func (n *Network) AddBoundary(name string, temp float64) BoundaryID {
	n.boundaries = append(n.boundaries, boundary{name: name, temp: temp})
	return BoundaryID(len(n.boundaries) - 1)
}

// ConnectNodes links two capacitive nodes with conductance g (W/°C).
func (n *Network) ConnectNodes(a, b NodeID, g float64) (LinkID, error) {
	if err := n.checkNode(a); err != nil {
		return 0, err
	}
	if err := n.checkNode(b); err != nil {
		return 0, err
	}
	if !validConductance(g) {
		return 0, conductanceError("conductance", g)
	}
	n.links = append(n.links, link{a: a, b: b, g: g})
	n.invalidate()
	return LinkID(len(n.links) - 1), nil
}

// ConnectBoundary links a capacitive node to a boundary with conductance g.
func (n *Network) ConnectBoundary(a NodeID, b BoundaryID, g float64) (LinkID, error) {
	if err := n.checkNode(a); err != nil {
		return 0, err
	}
	if int(b) < 0 || int(b) >= len(n.boundaries) {
		return 0, fmt.Errorf("thermal: unknown boundary %d", b)
	}
	if !validConductance(g) {
		return 0, conductanceError("conductance", g)
	}
	n.links = append(n.links, link{a: a, bBound: b, toBoundary: true, g: g})
	n.invalidate()
	return LinkID(len(n.links) - 1), nil
}

// validConductance is the one rule every conductance obeys, whether wired,
// set by a fan or restored from a checkpoint: finite and non-negative. Any
// other value makes the system matrix meaningless, and NaN slips past a
// plain g < 0 test.
func validConductance(g float64) bool { return g >= 0 && !math.IsInf(g, 1) }

// conductanceError is the error for a g that breaks validConductance;
// field names the value.
func conductanceError(field string, g float64) error {
	return fmt.Errorf("thermal: %s %g must be finite and non-negative", field, g)
}

func (n *Network) checkNode(id NodeID) error {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return fmt.Errorf("thermal: unknown node %d", id)
	}
	return nil
}

// SetConductance updates a link's conductance; this is how airflow changes
// with fan RPM between steps.
func (n *Network) SetConductance(id LinkID, g float64) error {
	if int(id) < 0 || int(id) >= len(n.links) {
		return fmt.Errorf("thermal: unknown link %d", id)
	}
	if !validConductance(g) {
		return conductanceError(fmt.Sprintf("link %d conductance", id), g)
	}
	// No cache invalidation here: propagator entries are keyed on the full
	// conductance vector, so a change merely selects a different entry (or
	// triggers one build) while entries for other operating points survive.
	// Setting the value already in place is a no-op so the generation
	// counter — the O(1) steady-state cache key — only moves when the
	// system matrix actually changes.
	if n.links[id].g == g {
		return nil
	}
	n.links[id].g = g
	n.condGen++
	return nil
}

// SetBoundaryTemp updates a boundary temperature (e.g. inlet preheat).
func (n *Network) SetBoundaryTemp(id BoundaryID, temp float64) error {
	if int(id) < 0 || int(id) >= len(n.boundaries) {
		return fmt.Errorf("thermal: unknown boundary %d", id)
	}
	n.boundaries[id].temp = temp
	return nil
}

// SetPower sets the heat injected into a node in Watts for subsequent steps.
func (n *Network) SetPower(id NodeID, w float64) error {
	if err := n.checkNode(id); err != nil {
		return err
	}
	n.nodes[id].powerIn = w
	return nil
}

// Temp returns a node's current temperature.
func (n *Network) Temp(id NodeID) float64 { return n.nodes[id].temp }

// SetTemp forces a node temperature (used to start experiments from the
// paper's mandated cold state).
func (n *Network) SetTemp(id NodeID, temp float64) error {
	if err := n.checkNode(id); err != nil {
		return err
	}
	n.nodes[id].temp = temp
	return nil
}

// NumNodes returns the number of capacitive nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// TempSum returns the plain sum of every node temperature. Unlike the
// max-style roll-ups, whose `>` comparisons silently skip NaN, a sum is
// poisoned by any non-finite node — which is exactly what the run-level
// divergence guard needs: one O(nodes) read that cannot hide a NaN.
func (n *Network) TempSum() float64 {
	var s float64
	for i := range n.nodes {
		s += n.nodes[i].temp
	}
	return s
}

// derivative computes dT/dt for every node.
func (n *Network) derivative(_ float64, y []float64, dydt []float64) {
	for i := range dydt {
		dydt[i] = n.nodes[i].powerIn
	}
	for _, l := range n.links {
		ta := y[l.a]
		var tb float64
		if l.toBoundary {
			tb = n.boundaries[l.bBound].temp
		} else {
			tb = y[l.b]
		}
		q := l.g * (tb - ta) // W flowing into a
		dydt[l.a] += q
		if !l.toBoundary {
			dydt[l.b] -= q
		}
	}
	for i := range dydt {
		dydt[i] /= n.nodes[i].capac
	}
}

// Step advances the whole network by dt seconds. With the exact integrator
// (the default) this is a single cached-propagator matvec for any dt; the
// RK4 path subdivides into equal substeps of at most maxStep.
func (n *Network) Step(dt float64) {
	if dt <= 0 || len(n.nodes) == 0 {
		return
	}
	if len(n.u) != len(n.nodes) {
		n.sizeScratch()
	}
	if n.integrator == IntegratorExact && n.stepExact(dt) {
		return
	}
	n.stepRK4(dt)
}

// stepExact advances by one exact propagator application. It returns false
// if the propagator could not be built (the caller then falls back to RK4).
func (n *Network) stepExact(dt float64) bool {
	p := n.propagatorFor(dt)
	if p.failed {
		return false // a doomed operating point stays on RK4 until its key changes
	}
	// Affine input u = C⁻¹·(P + Σ g_b·T_b); power and boundary temperature
	// changes are picked up here without touching the cached propagator.
	for i := range n.u {
		n.u[i] = n.nodes[i].powerIn
		n.t[i] = n.nodes[i].temp
	}
	for _, l := range n.links {
		if l.toBoundary {
			n.u[l.a] += l.g * n.boundaries[l.bBound].temp
		}
	}
	for i := range n.u {
		n.u[i] /= n.nodes[i].capac
	}
	if !n.applyExact(p, p.twin) {
		// A non-finite input turns the dense product's exact zeros into
		// NaN (0·Inf, 0·NaN) in every other block: recompute as one block
		// to reproduce that spread bit for bit.
		n.applyExact(p, n.plan.whole[:])
	}
	return true
}

// applyExact sets the node temperatures to ad·T + phi·u, with T and u read
// from the t and u scratch, block by block over blocks (a twin map, in
// index order). A twin block whose inputs T and u are bit-identical to its
// source's is copied from the source, already computed (the twin rule, see
// "Block structure" in doc.go). It reports whether every result is finite: adding
// 1 to an all-ones exponent field carries into the sign bit, which no
// finite value's field reaches.
func (n *Network) applyExact(p *propagator, blocks []twinCopy) bool {
	const exp = 0x7ff << 52
	var carry uint64
	m := p.m
	for _, tc := range blocks {
		lo, hi := tc.dst, tc.dst+tc.k
		if src := tc.src; src >= 0 && sameBits(n.u[lo:hi], n.u[src:src+tc.k]) && sameBits(n.t[lo:hi], n.t[src:src+tc.k]) {
			for i := lo; i < hi; i++ {
				n.nodes[i].temp = n.nodes[src+i-lo].temp
			}
			continue
		}
		t, u := n.t[lo:hi], n.u[lo:hi]
		for i := lo; i < hi; i++ {
			ad := p.ad[i*m+lo : i*m+hi]
			phi := p.phi[i*m+lo : i*m+hi]
			s := 0.0
			for j := range ad {
				s += ad[j]*t[j] + phi[j]*u[j]
			}
			n.nodes[i].temp = s
			carry |= math.Float64bits(s)&exp + 1<<52
		}
	}
	return carry>>63 == 0
}

// propagatorFor returns the cached entry matching the current
// (conductance-set, h) key, promoting it to the front of the LRU, and
// builds and inserts it on a miss.
//
// The fast path compares (gen, h, m): the generation counter advances
// exactly when a conductance value changes, so a matching stamp proves the
// entry's matrix is current without touching the per-link floats — the
// steady-state lookup is O(1) in the link count. When the generation
// moved (a fan toggled and toggled back), the slow path re-verifies the
// snapshot float-by-float and, on a match, re-stamps the entry with the
// current generation so subsequent steps take the fast path again. Results
// are bit-identical to the always-walk lookup: a stamp can only equal the
// current generation if the conductance vector is unchanged since it was
// stamped.
func (n *Network) propagatorFor(h float64) *propagator {
	m := len(n.nodes)
	for k, p := range n.props {
		if p.gen == n.condGen && p.h == h && p.m == m {
			n.propHits++
			return n.promote(k, p)
		}
	}
	for k, p := range n.props {
		if p.h != h || p.m != m || len(p.gs) != len(n.links) {
			continue
		}
		match := true
		for j := range n.links {
			if p.gs[j] != n.links[j].g {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		p.gen = n.condGen // re-stamp: O(1) hits until the fans move again
		n.propHits++
		return n.promote(k, p)
	}
	n.propMisses++
	n.propBuilds++
	return n.cachePropagator(h, nil, n.condGen)
}

// promote moves props[k] to the front of the LRU and returns it.
func (n *Network) promote(k int, p *propagator) *propagator {
	if k > 0 {
		copy(n.props[1:k+1], n.props[:k])
		n.props[0] = p
	}
	return p
}

// cachePropagator assembles A = −C⁻¹G for the per-link conductances gs
// (nil: the live ones), computes the exact discretization pair for step h
// and the block twin map, and inserts the entry, stamped gen, at the front
// of the LRU, evicting the least recently used entry when the cache is
// full. It is the one constructor behind both a cache miss (propagatorFor)
// and a checkpoint restore (restorePropagator); it touches neither the
// counters nor the live links. This is the cold path: it runs once per
// (conductance-set, h) operating point in the working set (fan-speed
// updates are holdoff-gated upstream, so steady operation hits the cache).
// A system the Padé evaluation rejects is cached as failed, keeping the
// RK4 fallback from re-attempting the build every step. The entry is the
// build's only allocation: the workspace and system matrix are reused.
func (n *Network) cachePropagator(h float64, gs []float64, gen uint64) *propagator {
	m, nl := len(n.nodes), len(n.links)
	n.plan.refresh(n)
	buf := make([]float64, nl+2*m*m)
	p := &propagator{
		h:   h,
		m:   m,
		gen: gen,
		gs:  buf[:nl:nl],
		ad:  buf[nl : nl+m*m : nl+m*m],
		phi: buf[nl+m*m:],
	}
	if gs != nil {
		copy(p.gs, gs)
	} else {
		for j := range n.links {
			p.gs[j] = n.links[j].g
		}
	}
	if len(n.sys) != m*m {
		n.sys = make([]float64, m*m)
	}
	a := n.sys
	for i := range a {
		a[i] = 0
	}
	for j, l := range n.links {
		ga := p.gs[j] / n.nodes[l.a].capac
		a[int(l.a)*m+int(l.a)] -= ga
		if l.toBoundary {
			continue
		}
		gb := p.gs[j] / n.nodes[l.b].capac
		a[int(l.a)*m+int(l.b)] += ga
		a[int(l.b)*m+int(l.b)] -= gb
		a[int(l.b)*m+int(l.a)] += gb
	}
	if err := n.expm.ExpmIntegral(a, m, h, p.ad, p.phi); err != nil {
		p.failed = true
	} else {
		p.twin = n.plan.twinMap(p)
	}
	if len(n.props) == propCacheSize {
		n.props = n.props[:propCacheSize-1]
	}
	n.props = append(n.props, nil)
	copy(n.props[1:], n.props[:len(n.props)-1])
	n.props[0] = p
	return p
}

// stepRK4 advances by dt using classical RK4 over an integer number of equal
// substeps, so the total integrated time is exactly dt with no float-drift
// remainder step.
func (n *Network) stepRK4(dt float64) {
	for i := range n.nodes {
		n.state[i] = n.nodes[i].temp
	}
	sub := int(math.Ceil(dt/n.maxStep - 1e-9))
	if sub < 1 {
		sub = 1
	}
	h := dt / float64(sub)
	for k := 0; k < sub; k++ {
		mathx.RK4Step(n.derivative, float64(k)*h, n.state, h, n.scratch)
	}
	for i := range n.nodes {
		n.nodes[i].temp = n.state[i]
	}
}

// SteadyState solves for the equilibrium temperatures with the current
// powers, conductances and boundary temperatures by solving the linear heat
// balance G·T = P + G_b·T_b. It does not modify the network state. The
// solve runs in preallocated buffers reused across calls, so repeated
// equilibrium queries (table building, bisection) do not allocate the
// m×m system each time.
func (n *Network) SteadyState() ([]float64, error) {
	m := len(n.nodes)
	if m == 0 {
		return nil, nil
	}
	if len(n.ssA) != m {
		n.ssA = make([][]float64, m)
		for i := range n.ssA {
			n.ssA[i] = make([]float64, m)
		}
		n.ssB = make([]float64, m)
	}
	a, b := n.ssA, n.ssB
	for i := range a {
		row := a[i]
		for j := range row {
			row[j] = 0
		}
		b[i] = n.nodes[i].powerIn
	}
	for _, l := range n.links {
		if l.toBoundary {
			a[l.a][l.a] += l.g
			b[l.a] += l.g * n.boundaries[l.bBound].temp
		} else {
			a[l.a][l.a] += l.g
			a[l.a][l.b] -= l.g
			a[l.b][l.b] += l.g
			a[l.b][l.a] -= l.g
		}
	}
	if err := mathx.SolveLinearInPlace(a, b); err != nil {
		return nil, err
	}
	// The in-place solve also pivot-swaps the rows of ssA; that is fine
	// because the buffers are fully rewritten on the next call.
	return append([]float64(nil), b...), nil
}

// Settle assigns the steady-state solution to the node temperatures. It is
// used to initialize experiments in thermal equilibrium.
func (n *Network) Settle() error {
	t, err := n.SteadyState()
	if err != nil {
		return err
	}
	for i := range n.nodes {
		n.nodes[i].temp = t[i]
	}
	return nil
}
