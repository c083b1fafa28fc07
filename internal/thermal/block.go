package thermal

import "math"

// This file holds the block structure every propagator application runs
// on (see "Block structure" in doc.go). The nodes split into the finest
// contiguous index ranges that no node–node link crosses; −C⁻¹G, and with
// it every propagator and every one-step map, is then block-diagonal with
// exact-zero off-block entries, so each block is computed on its own
// in-block entries. A block whose propagator blocks and per-call inputs are
// bit-identical to an earlier block's — the second socket of a uniformly
// loaded server — is copied instead of computed.

// twinCopy is one block of a propagator's twin map: the nodes [dst, dst+k),
// whose ad and phi blocks are bit-identical to those of the nodes
// [src, src+k), or src = -1 when no earlier block's are.
type twinCopy struct{ dst, src, k int }

// blockPlan is the network's block partition. It is derived from the links
// alone: rebuilt lazily by the first propagator build after a topology
// edit, never snapshotted, and reusing its buffers so a refresh allocates
// only when the network grows.
type blockPlan struct {
	stale  bool        // a node or link was added since the last refresh
	bounds []int       // block b is the nodes [bounds[b], bounds[b+1])
	reach  []int       // refresh scratch: the furthest node each node links to
	pairs  bool        // every block is a 2-node pair: the macro kernel's shape
	whole  [1]twinCopy // every node as one block with no twin: the dense product
}

// refresh recomputes the partition when the topology moved. A node–node
// link between a and b ties every node in [min(a,b), max(a,b)] into one
// block, so interleaved components merge; boundary links tie nothing.
func (bp *blockPlan) refresh(n *Network) {
	if !bp.stale {
		return
	}
	bp.stale = false
	m := len(n.nodes)
	if cap(bp.reach) < m {
		bp.reach = make([]int, m)
	}
	reach := bp.reach[:m]
	for i := range reach {
		reach[i] = i
	}
	for _, l := range n.links {
		if l.toBoundary {
			continue
		}
		lo, hi := int(l.a), int(l.b)
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > reach[lo] {
			reach[lo] = hi
		}
	}
	bp.bounds = append(bp.bounds[:0], 0)
	end := 0
	bp.pairs = true
	for i, r := range reach {
		if r > end {
			end = r
		}
		if i == end {
			bp.pairs = bp.pairs && i+1-bp.bounds[len(bp.bounds)-1] == 2
			bp.bounds = append(bp.bounds, i+1)
			end = i + 1
		}
	}
	bp.whole[0] = twinCopy{0, -1, m}
}

// twinMap returns p's twin map, one entry per block: the first earlier
// block of the same size whose ad and phi blocks are bit-identical to its
// own, or src = -1. Bits, not values, are compared, so ±0 and NaN payloads
// count as different. The first such block is never a twin itself.
func (bp *blockPlan) twinMap(p *propagator) []twinCopy {
	tw := make([]twinCopy, len(bp.bounds)-1)
	for b := range tw {
		lo, k := bp.bounds[b], bp.bounds[b+1]-bp.bounds[b]
		tw[b] = twinCopy{lo, -1, k}
		for a := 0; a < b; a++ {
			src := bp.bounds[a]
			if bp.bounds[a+1]-src == k && sameBlock(p.ad, p.m, src, lo, k) && sameBlock(p.phi, p.m, src, lo, k) {
				tw[b].src = src
				break
			}
		}
	}
	return tw
}

// sameBlock reports whether the k×k diagonal blocks of the m×m row-major x
// starting at (a, a) and (b, b) are bit-identical.
func sameBlock(x []float64, m, a, b, k int) bool {
	for i := 0; i < k; i++ {
		if !sameBits(x[(a+i)*m+a:(a+i)*m+a+k], x[(b+i)*m+b:(b+i)*m+b+k]) {
			return false
		}
	}
	return true
}

// sameBits reports whether x and y hold bit-identical values.
func sameBits(x, y []float64) bool {
	for i, v := range x {
		if math.Float64bits(v) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// withinCap is the ladder's and the walk's drift test, NaN-safe: a
// diverged candidate fails the cap.
func withinCap(d, driftCap float64) bool {
	if d < 0 {
		d = -d
	}
	return d <= driftCap
}

// finite reports whether every value of v is finite: x − x is 0 for a
// finite x and NaN for ±Inf and NaN.
func finite(v []float64) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}
