// Package sched puts a job dispatcher on top of internal/rack: jobs with
// an arrival time, a duration and a CPU demand are placed onto servers by
// a pluggable placement policy, and the rack physics decides what the
// placement costs in energy, temperature and wall power.
//
// The paper's server-level result — leakage- and fan-aware control beats
// reactive and static policies — only pays off at scale when the
// dispatcher also knows which machine is coolest and cheapest to heat up.
// The six shipped policies span that design space:
//
//   - round-robin and least-utilized: thermally blind baselines;
//   - coolest-first: the reactive thermal heuristic;
//   - leakage-aware: reuses the paper's own machinery (internal/lut over
//     server.SteadyTemp) to place each job where the predicted marginal
//     fan+leakage power is lowest;
//   - cap-aware: the delivery-chain refinement — the same marginal cost
//     lifted through each slot's PSU efficiency curve, so jobs go where
//     the predicted marginal wall (AC) power is lowest;
//   - pue-aware: the facility-scope refinement — cost tables rebuilt at
//     the ambients the CRAC setpoint actually supplies (a facility-blind
//     table goes stale when the operator moves the cold aisle), and the
//     wall marginal amplified by the marginal CRAC/chiller power that
//     removes it as heat (internal/cooling).
//
// # Determinism contract
//
// Scheduling decisions run serially on the dispatcher goroutine; only the
// rack step underneath fans out (under the repository-wide "job i writes
// only slot i; reductions serial in index order" contract documented in
// internal/par). Policies must be deterministic, breaking ties by the
// lowest server index; the runner places strictly FIFO, so the queue head
// blocks until it fits. Results are therefore byte-identical for any
// worker count.
//
// # One trace kernel
//
// One kernel runs every trace: a rack's (RunTraceCfg, ResumeTraceCfg,
// Settle) and a room's (RunPlant and SettlePlant, which internal/room
// runs on). It steps a Plant — one rack, or a room of racks — and offers
// the FIFO head to the plant's Place hook: the rack's policy, or the
// room's two-level chooser→slot policy. Everything else exists once: the
// fixed-dt reference loop and the event loop, the decision step, the
// window bounds, the float-exact step arithmetic, fault-edge pinning, the
// cancellation check, the NaN divergence guard (Diverged), the pin-reason
// taxonomy and the metric handles, which report kernel.* and sched.* for
// a rack run and room.* for a room run. A time grid the kernel cannot
// step is an error: a non-finite or non-positive Dt or Horizon, or a
// negative or non-finite SampleEvery. The wall cap, its deferral proof,
// backfill and checkpoints are rack-run features.
//
// # Wall-power capping
//
// TraceConfig.WallCapW enforces a rack-level wall budget: the runner
// predicts each placement's post-placement wall draw — the
// utilization-driven DC increments of the candidate and of every
// placement already admitted in the same step, through
// rack.WallPowerWithAll — and defers the head while the prediction
// strictly exceeds the cap. A cap below the rack's idle draw therefore
// starves politely: nothing places, the queue holds, and the run still
// terminates at its horizon. TraceConfig.CapMarginal switches admission
// to the conservative estimate, which charges the settled fan+leak
// marginal up front and so defers no later than the fast one.
//
// # Event-driven macro-stepping
//
// TraceConfig.EventStepping replaces the fixed-dt grind with an
// event-driven kernel. The event taxonomy: job arrivals, job completions,
// fault edges, backlog retries (a blocked FIFO head is re-attempted every
// grid step, against freshly evolved telemetry), controller wake-ups (the
// control.HorizonPromiser contract: hold-off expiries and poll outcomes
// bound when a fan decision can next happen), and optional fixed-cadence
// telemetry samples (TraceConfig.SampleEvery). The kernel visits the grid
// steps at which the fixed-dt loop could decide something new —
// decisions run through literally the same code at the same instants —
// and advances the rack across each quiet gap in one closed-form macro
// window (rack.Advance over server.MacroWindow over
// thermal.StepLinearizedN). A room run ends its segments at the same
// events bar the controller wake-ups: within a segment each rack chunks
// on its own (Segment.Chunk). Energies agree with the fixed-dt reference
// to ≤1e-6 relative (server.Config.MacroDriftTolC is the knob), and
// wall-clock scales with the number of events instead of horizon/dt —
// ~27× fewer rack advances on the default Poisson trace. Decisions see
// telemetry within that drift of the reference's, so placements, deferral
// counts and queue statistics are identical except where a temperature-
// or power-ranked pick, or a cap admission, sits within the drift of a
// tie (coolest-first flips about one benchmark trace in a hundred).
//
// The kernel pins itself to single-step windows while any fan controller
// cannot promise a quiet horizon, while fans are slewing, and near the
// thermal-trip threshold. A blocked FIFO head pins it too, unless the
// kernel can cross it:
//
//   - a refused head is refused again at every step to the next event
//     when the placement decides on loads and health alone
//     (LoadOnlyRefuser: round-robin, least-utilized and leakage-aware opt
//     in), since those change only at scheduling events; the window runs
//     there without a Place call per step;
//   - a cap-deferred head is deferred again, whatever the policy picks,
//     as long as a lower bound on the rack's wall draw, plus the head's
//     cheapest increment over every slot it fits, stays above the cap
//     (rack.WallFloorSteps over server.DieFloor: convex leakage and a
//     nonnegative propagator make the walked linearized trajectory a
//     floor on every die); the window runs as far as the bound holds, at
//     most 16 steps, and each crossed step replays the Place call — with
//     the views the walk predicts there (rack.FloorWalkView) for a policy
//     that reads telemetry — its validation and the deferral count.
//
// Behind a blocked head an arrival only joins the tail, so it ends no
// window unless backfill would try it. Coolest-first, cap-aware and
// pue-aware keep the pin behind a refused head, and behind a deferred one
// while a slot is dark (the walk skips dark slots); every policy keeps it
// under backfill with a cap. BangBang promises its own decision cadence,
// and its control.BandPromiser band extends that promise across every
// future decision instant whose predicted observation provably stays
// inside [TLow, THigh] (server.BandDecisionHorizon). EventStepping=false
// (the default) is the bit-exact reference path.
//
// # FIFO backfill
//
// TraceConfig.Backfill relaxes strict FIFO when the queue head blocks:
// the queued jobs behind it are tried once each, in arrival order, under
// the same checks and cap admission the head failed (Result.Backfills).
// The head keeps strict priority — refusal is monotone in load for every
// shipped policy, so a backfilled placement can never un-refuse it — but
// arrival fairness weakens to head-priority-only.
//
// # Faults and graceful degradation
//
// TraceConfig.Faults attaches a deterministic internal/fault schedule
// (a room run takes one per rack). Every event edge is pinned up front to
// the first grid step at or after its time, the same rule in both
// stepping modes, and within a step the order is fixed: completions, then
// fault edges (clears before applies at a shared step), then the kill
// scan, then arrivals and placement. The kill scan removes every running
// job whose slot is no longer rack.Healthy: it rejoins the backlog head
// and restarts from scratch, its destroyed progress charged to
// Result.LostJobSeconds, or is abandoned under TraceConfig.DropOnFault.
// Placing on an unhealthy slot is a hard policy error. FIFO head-blocking
// is unchanged, so degraded runs stay starvation-free and always
// terminate at their horizon.
//
// Under event stepping, fault edges are wake events bounding every quiet
// window. Between two edges a fault is one more constant input, so the
// servers it touches — dark slots included — macro-step through it like
// any quiet interval. The kernel degrades to single-step windows while
// any live server sits inside the trip-guard band (rack.TripRisk), so a
// natural trip — and the kills it implies — is observed on the step it
// latches. One caveat mirrors the controller PollPeriod contract: a
// natural trip latching strictly inside a granted macro window (possible
// only with no fault schedule attached and an empty backlog) defers its
// kill scan to the window's end.
package sched
