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
// lowest server index; RunTraceCfg places strictly FIFO, so the queue
// head blocks until it fits. Results are therefore byte-identical for any
// worker count.
//
// # Wall-power capping
//
// TraceConfig.WallCapW enforces a rack-level wall budget: before charging
// a placement, the runner predicts the post-placement wall draw —
// rack.WallPowerWithAll over the utilization-driven DC increments of the
// candidate job and every placement already admitted in the same step —
// and defers the head — one deferral per step, retried after completions
// free power — whenever the prediction strictly exceeds the cap. A cap
// below the rack's idle draw therefore starves politely: nothing places,
// the queue holds, and the run still terminates at its horizon.
//
// The fast admission estimate counts only the utilization-driven DC
// increment, so fan and leakage transients settling after admission can
// still push the wall past the cap. TraceConfig.CapMarginal supplies
// per-slot steady-state cost tables and switches admission to the
// conservative estimate — the settled fan+leak marginal charged up front,
// clamped at zero — which by construction defers no later (and possibly
// earlier) than the fast one.
//
// # Event-driven macro-stepping
//
// TraceConfig.EventStepping replaces the fixed-dt grind with an
// event-driven kernel. The event taxonomy: job arrivals, job completions,
// backlog retries (a blocked FIFO head is re-attempted every grid step,
// against freshly evolved telemetry), controller wake-ups (the
// control.HorizonPromiser contract: hold-off expiries and poll outcomes
// bound when a fan decision can next happen), and optional fixed-cadence
// telemetry samples (TraceConfig.SampleEvery). The kernel visits the grid
// steps at which the fixed-dt loop could decide something new —
// decisions run through literally the same code at the same instants —
// and advances the rack across each quiet gap in one closed-form macro
// window (rack.Advance over server.MacroWindow over
// thermal.StepLinearizedN). Energies agree with the fixed-dt reference to
// ≤1e-6 relative (the leakage-linearization drift cap,
// server.Config.MacroDriftTolC, is the knob), and wall-clock scales with
// the number of events instead of horizon/dt — ~27× fewer rack advances
// on the default Poisson trace. Decisions see telemetry within that
// drift of the reference's, so placements, deferral counts and queue
// statistics are identical except where a temperature- or power-ranked
// pick, or a cap admission, sits within the drift of a tie (coolest-first
// flips about one benchmark trace in a hundred); policies that decide on
// loads and health alone match whenever the cap admissions do.
//
// Fixed-dt remains mandatory — the kernel pins itself to single-step
// windows — while any fan controller cannot promise a quiet horizon
// (control.HorizonPromiser), while fans are slewing, or near the
// thermal-trip threshold. A blocked FIFO head pins the kernel too, unless
// the kernel can cross it:
//
//   - a refused head is refused again at every step to the next event
//     when the policy decides on loads and health alone
//     (LoadOnlyRefuser: round-robin, least-utilized and leakage-aware opt
//     in), since those change only at scheduling events; the window runs
//     there without a Place call per step;
//   - a cap-deferred head is deferred again, whatever the policy picks,
//     as long as a lower bound on the rack's wall draw, plus the head's
//     cheapest increment over every slot it fits, stays above the cap
//     (rack.WallFloorSteps over server.DieFloor: convex leakage and a
//     nonnegative propagator make the walked linearized trajectory a
//     floor on every die); the window runs as far as the bound holds, at
//     most 16 steps, and each crossed step replays the Place call, its
//     validation and the deferral count.
//
// Place decides from its arguments and the policy's own state, so a
// crossed retry needs the views the skipped step would show. A
// LoadOnlyRefuser reads only loads and health, so the decision step's
// views serve it. Every other policy is offered the walk's own prediction
// for that step (rack.FloorWalkView): the walked hottest die, the DC draw
// at it (server.DCAtDie) and that draw through the slot's PSU, with the
// inlet temperature, which holds across the window. They carry the walk's
// linearization error, as every decision after a macro window carries
// the macro drift. A refusal at a crossed step is what the fixed-dt loop
// would see too; it counts nothing.
//
// Behind a blocked head an arrival only joins the tail, so it ends no
// window unless backfill would try it; the crossed steps admit it at its
// step and update the queue statistics. Coolest-first, cap-aware and
// pue-aware keep the pin behind a refused head, and behind a deferred one
// while a slot is dark (the walk skips dark slots); every policy keeps it
// under backfill with a cap (its candidates face the same evolving
// admission). Reactive temperature-thresholding
// controllers are no longer an automatic pin either: BangBang promises
// its own decision cadence (ticks strictly before the next due instant
// are non-mutating no-ops), and its control.BandPromiser band lets the
// kernel extend that promise across every future decision instant whose
// predicted observation provably stays inside [TLow, THigh]
// (server.BandDecisionHorizon). EventStepping=false (the default) is the
// bit-exact reference path.
//
// # FIFO backfill
//
// TraceConfig.Backfill relaxes strict FIFO when the queue head blocks:
// the remaining queued jobs are tried once each, in arrival order,
// against the same invalid/overload/health checks and the same pendingDC
// cap admission the head failed, and placed where accepted
// (Result.Backfills counts them; sched.backfills mirrors it). The head
// keeps strict priority — backfilled placements only consume capacity,
// which can never un-refuse the head, because refusal is monotone in load
// for every shipped policy — but arrival fairness weakens to
// head-priority-only: under sustained overload a small job behind a large
// blocked head may run first indefinitely often. Cap-blocked backfill
// candidates are skipped without charging a Deferral (that meter stays
// head-only). Backfill decisions happen at the same decision steps as
// head retries, so the load-only macro carve-out above applies unchanged
// and both kernels agree job for job.
//
// # Faults and graceful degradation
//
// TraceConfig.Faults attaches a deterministic internal/fault schedule.
// Every event edge (inject, and the clear of a windowed event) is pinned
// up front to the first grid step at or after its time — the same
// grid-arithmetic rule in both stepping modes, so both kernels act at the
// same instants, and each stays byte-identical across worker counts.
// Within a step the order is fixed: completions, then fault edges
// (clears before applies when they share a step), then the kill scan, then
// arrivals and placement — a job ending exactly at a fault instant
// completes, and an apply+clear pair collapsing onto one step is dropped
// as a no-op.
//
// The kill scan removes every running job whose slot is no longer
// rack.Healthy: by default the job rejoins the backlog HEAD (ahead of
// waiting arrivals — it has the oldest claim), restarts from scratch with
// its wait clock reset, and its destroyed progress is charged to
// Result.LostJobSeconds; TraceConfig.DropOnFault abandons it instead,
// charging its full duration. Policies see slot health in ServerView and
// must not place on unhealthy slots — the runner enforces this with a hard
// error. FIFO head-blocking is unchanged, so degraded runs remain
// starvation-free: a requeued head blocks until some healthy slot fits it,
// and the run always terminates at its horizon.
//
// Under event stepping, fault edges are wake events bounding every quiet
// window. Between two edges a fault is one more constant input, so the
// servers it touches — dark slots included — macro-step through it like
// any quiet interval, within the kernel's usual energy budget. The kernel
// degrades to single-step windows while any live server sits inside the
// trip-guard band (rack.TripRisk), so a natural
// trip — and the kills it implies — is observed on the step it latches.
// One caveat mirrors the controller PollPeriod contract: a natural trip
// latching strictly inside a granted macro window (possible only when no
// fault schedule is attached) defers its kill scan to the window's end.
package sched
