package thermal

import (
	"fmt"
	"math"
)

// PropEntry is the serializable key of one cached propagator: the step size
// and the per-link conductance vector it was built for, in LRU order
// (most recently used first). The matrices, their block twin map and the
// network's block plan are derived state — the Expm evaluation is
// deterministic and the plan follows from the links, so rebuilding from
// the key reproduces them bit-identically — and stay out of the snapshot.
type PropEntry struct {
	H  float64
	Gs []float64
}

// State is the serializable mutable state of a Network built from a fixed
// topology: temperatures, injected powers, boundary temperatures, link
// conductances, the propagator-cache keys in LRU order, and the lifetime
// cache counters. Restoring rebuilds every cached propagator and then
// overwrites the counters, so post-resume metrics dumps match the
// uninterrupted run exactly (the rebuilds themselves are not charged).
type State struct {
	Temps        []float64
	PowerIn      []float64
	Boundaries   []float64
	Conductances []float64
	Props        []PropEntry
	Stats        PropagatorStats
}

// State captures the network for a checkpoint.
func (n *Network) State() State {
	st := State{
		Temps:        make([]float64, len(n.nodes)),
		PowerIn:      make([]float64, len(n.nodes)),
		Boundaries:   make([]float64, len(n.boundaries)),
		Conductances: make([]float64, len(n.links)),
		Stats:        n.PropagatorStats(),
	}
	for i, nd := range n.nodes {
		st.Temps[i] = nd.temp
		st.PowerIn[i] = nd.powerIn
	}
	for i, b := range n.boundaries {
		st.Boundaries[i] = b.temp
	}
	for i, l := range n.links {
		st.Conductances[i] = l.g
	}
	for _, p := range n.props {
		st.Props = append(st.Props, PropEntry{H: p.h, Gs: append([]float64(nil), p.gs...)})
	}
	return st
}

// SetState restores a captured State into a network with the same topology
// (node, boundary and link counts must match; the wiring itself is a
// construction parameter). Every conductance, live or in a propagator key,
// must be finite and non-negative, and every key's step finite and
// positive; a state that breaks either is rejected before anything is
// restored. Temperatures and powers are taken as they are, so a diverged
// run's diagnostic checkpoint still restores.
func (n *Network) SetState(st State) error {
	if len(st.Temps) != len(n.nodes) || len(st.PowerIn) != len(n.nodes) {
		return fmt.Errorf("thermal: state has %d nodes, network has %d", len(st.Temps), len(n.nodes))
	}
	if len(st.Boundaries) != len(n.boundaries) {
		return fmt.Errorf("thermal: state has %d boundaries, network has %d", len(st.Boundaries), len(n.boundaries))
	}
	if len(st.Conductances) != len(n.links) {
		return fmt.Errorf("thermal: state has %d links, network has %d", len(st.Conductances), len(n.links))
	}
	if len(st.Props) > propCacheSize {
		return fmt.Errorf("thermal: state has %d cached propagators, cache holds %d", len(st.Props), propCacheSize)
	}
	for i, g := range st.Conductances {
		if !validConductance(g) {
			return conductanceError(fmt.Sprintf("state Conductances[%d]", i), g)
		}
	}
	for k, e := range st.Props {
		if !(e.H > 0) || math.IsInf(e.H, 1) {
			return fmt.Errorf("thermal: state Props[%d].H %g must be finite and positive", k, e.H)
		}
		if len(e.Gs) != len(n.links) {
			return fmt.Errorf("thermal: state Props[%d] has %d conductances, network has %d links", k, len(e.Gs), len(n.links))
		}
		for j, g := range e.Gs {
			if !validConductance(g) {
				return conductanceError(fmt.Sprintf("state Props[%d].Gs[%d]", k, j), g)
			}
		}
	}
	for i := range n.nodes {
		n.nodes[i].temp = st.Temps[i]
		n.nodes[i].powerIn = st.PowerIn[i]
	}
	for i := range n.boundaries {
		n.boundaries[i].temp = st.Boundaries[i]
	}
	for i := range n.links {
		n.links[i].g = st.Conductances[i]
	}
	n.condGen++ // conductance values may have moved; stale stamps must not match
	// Rebuild the propagator cache from its keys, least recently used first,
	// so front-insertion recreates the snapshotted LRU order exactly — the
	// post-resume hit/miss/eviction pattern (and therefore the counters the
	// metrics dump reports) then matches the uninterrupted run.
	n.props = n.props[:0]
	for i := len(st.Props) - 1; i >= 0; i-- {
		n.restorePropagator(st.Props[i])
	}
	n.propHits = st.Stats.Hits
	n.propMisses = st.Stats.Misses
	n.propBuilds = st.Stats.Builds
	n.driftStops = st.Stats.DriftStops
	return nil
}

// restorePropagator rebuilds one cache entry from its (h, conductances) key,
// already checked by SetState, against the current topology through the
// build's own constructor, which touches neither the live link values nor
// the lifetime counters. The generation stamp is made current only when
// the entry's conductance vector equals the live one, so the O(1) fast
// path stays sound after restore.
func (n *Network) restorePropagator(e PropEntry) {
	gen := n.condGen
	for j := range n.links {
		if n.links[j].g != e.Gs[j] {
			gen = n.condGen - 1 // never equal to the live generation
			break
		}
	}
	n.cachePropagator(e.H, e.Gs, gen)
}
