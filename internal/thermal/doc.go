// Package thermal implements a lumped RC thermal network, the substrate
// that replaces the physical SPARC T3 server's thermal behaviour.
//
// Nodes carry a heat capacitance (J/°C) and a temperature; boundaries are
// fixed-temperature reservoirs (ambient or preheated inlet air). Links are
// thermal conductances (W/°C, the reciprocal of a thermal resistance in
// °C/W). Conductances may be changed between steps, which is how fan-speed
// dependent convection is modelled: the server layer recomputes the
// sink-to-air conductance from the current RPM before each step.
//
// The network reproduces the two behaviours Figure 1 of the paper
// documents: a fast die-level transient (small C close to the heat source)
// and a slow fan-dependent heatsink transient (large C behind an
// airflow-dependent R).
//
// # Integrators
//
// Between topology or conductance changes the network is linear
// time-invariant (C·dT/dt = −G·T + P + G_b·T_b), so the default
// IntegratorExact advances any step length with the exact discrete
// propagator T(t+h) = Ad·T + Phi·u, where Ad = exp(−C⁻¹G·h) and Phi its
// integral (mathx.ExpmWorkspace.ExpmIntegral, Van Loan's augmented-matrix
// trick, run in one workspace per network so a build allocates only the
// cache entry it creates). The classical fixed-step RK4 scheme is retained
// behind IntegratorRK4 as the ground truth; the equivalence property test
// pins the two to ≤1e-6 °C per step across random networks and mid-run
// mutations.
//
// # Propagator cache invalidation rules
//
// Exact propagators are cached in a small LRU keyed on
// (conductance-set, step size):
//
//   - Power injections (SetPower) and boundary temperatures
//     (SetBoundaryTemp) NEVER invalidate: they enter only the per-step
//     affine term u, recomputed every step.
//   - A conductance change (SetConductance) does not flush the cache; it
//     changes the key, so stepping looks up (and at worst builds) the
//     entry for the new conductance snapshot while the old entry stays
//     resident. Alternating operating points — a controller toggling
//     between two fan speeds, or alternating dt — therefore hit the
//     cache on both sides instead of thrashing.
//   - Adding a node or changing the step size likewise selects a
//     different entry; only cache-capacity eviction (LRU, 8 entries)
//     discards one.
//
// Lookups are O(1) in the link count: every conductance mutation bumps a
// generation counter (same-value writes are no-ops), entries carry the
// generation they last matched, and a (generation, h, nodes) compare
// proves an entry current without walking its conductance snapshot. When
// the generation moved — a fan toggled away and back — the slow
// float-by-float verification runs once and re-stamps the matching entry.
//
// In steady operation the hit rate is ~100% and one step of any length is
// a single small matvec, which is what makes rack-scale stepping scale
// near-linearly in server count.
//
// # Macro-stepping
//
// StepLinearizedN serves the event-driven kernel (internal/sched): with
// constant inputs and the temperature-dependent heat sources linearized
// around the current state (per-node feedback slopes), K consecutive
// fixed-dt steps are one affine map applied K times, which collapses into
// O(log K) small matrix products via a doubling ladder. The ladder also
// returns the running temperature sum Σ T_k, turning the per-step
// rectangle-rule energy accounting into a closed form, and caps the
// per-window temperature drift so the linearization error stays bounded;
// windows that would drift past the cap shrink or fall back to plain
// stepping. See macro.go for the algebra.
//
// # Block structure
//
// Every propagator application — the plain exact step, the macro ladder and
// the linearized walk (PredictLinearized) — runs per block:
//
//   - The block rule. The nodes split into the finest contiguous index
//     ranges that no node–node link crosses: a link between nodes a and b
//     ties every node from min(a,b) to max(a,b) into one block. Boundary
//     links tie nothing. The plan is derived from the links, rebuilt by the
//     first propagator build after AddNode or Connect*, and never
//     snapshotted. The SPARC T3 server's network (die0, sink0, die1, sink1)
//     is two 2-node blocks, one per socket.
//   - Why it is exact. −C⁻¹G is block-diagonal under that partition, so the
//     Padé evaluation (whose products skip zero factors) and the
//     elimination give Ad and Phi exact-zero off-block entries, and so do
//     M = Ad + Phi·C⁻¹·S and every ladder power M^n. Each skipped term of a
//     dense dot product is then ±0 times a finite value, and adding ±0 to a
//     sum that starts at +0 never changes it; the in-block terms keep
//     their column order. So every result is bit-identical to the dense
//     m×m product's.
//   - The twin rule. When a propagator is built or restored it records, for
//     each block, the first earlier block of the same size whose Ad and Phi
//     blocks are bit-identical (math.Float64bits, so ±0 and NaN payloads
//     compare strictly). A call copies such a block's results from its
//     source instead of computing them when its inputs are bit-identical
//     too: v = S/C, u and T₀ for the ladder and the walk, u and T for a
//     plain step. Otherwise it computes the block like any other. Under the
//     dispatcher's uniform socket load the second socket is copied.
//   - What runs as one block. A connected network, or one whose components'
//     index ranges interleave, is a single block: the dense product. So is
//     a plain step whose result is not finite — a NaN or ±Inf input spreads
//     through the dense product's exact zeros (0·Inf and 0·NaN are NaN) into
//     every block, and recomputing as one block reproduces that — and a
//     ladder or walk under an infinite drift cap, the only setting in which
//     they commit a non-finite value. Under a finite cap a non-finite input
//     fails the first drift check, as it does densely.
package thermal
