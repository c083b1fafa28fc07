// Package fault is the deterministic fault-schedule subsystem: a typed,
// timestamped catalogue of component failures a rack run injects and clears
// at exact simulation-grid instants, so degraded runs stay reproducible and
// byte-identical across worker counts.
//
// A Schedule is a sorted list of Events. Each Event names a Kind (fan
// stick/fail, PSU droop/failure, forced server trip, ambient excursion,
// CRAC outage, degraded chiller COP), a target scope (one server, one fan,
// or the whole rack), an inject time At and an optional Clear time. The
// schedule itself owns no simulation state: the trace runner
// (sched.RunTraceCfg) pins every At/Clear to an integer grid step up front
// — the same integer-step arithmetic that keeps job arrivals exact under a
// non-integer dt — and calls rack.ApplyFault / rack.ClearFault at those
// steps, serially, before any placement decision of the step.
//
// # Interaction with the event kernel
//
// Fault inject and clear instants join the event taxonomy: the
// event-stepping kernel wakes at every fault step, so degraded runs take
// scheduling decisions at exactly the instants the fixed-dt reference
// does. Between two edges a fault is one more constant input — a stuck or
// failed fan, a drooping supply, a shifted ambient, a dark slot — so the
// physics there is the same fixed affine step map as in any quiet
// interval, and the kernel collapses it into closed-form macro windows,
// windowed or permanent alike. The physics inside a fault window is then
// held to the macro-stepping budget (energies within 1e-6 of fixed-dt),
// not bit-exact; a dark slot's relaxation has no temperature feedback, so
// its collapse is exact up to rounding. Slewing fans — a powered-on slot
// spinning back up, an unstuck fan — and the trip-guard band still take
// plain steps.
//
// # Determinism
//
// Events are applied in schedule order at their pinned grid steps; all
// application is serial (it runs in the trace runner's decision phase,
// never inside the per-server step fan-out), so fault runs inherit the
// repo-wide determinism contract unchanged: telemetry is byte-identical
// for any worker count, and an empty schedule leaves every metric
// bit-identical to a fault-free run.
package fault
