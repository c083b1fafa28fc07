// Package rack scales the simulation from one server to a rack of them:
// N independently configured server.Server instances (heterogeneous
// ambients, fan banks, DIMM counts), each optionally under its own fan
// controller, stepped together for a shared dt and aggregated into
// rack-level telemetry.
//
// # Determinism contract
//
// Stepping fans out over the shared internal/par worker pool under the
// repository's contract: job i writes only the state owned by server i
// (its server, controller and fan-change counter), and every cross-server
// reduction — energy sums, the simultaneous power peak, inlet/DIMM/CPU
// temperature maxima, the wall-power roll-up — runs serially in index
// order after the fan-out barrier. Rack telemetry is therefore byte
// identical for any worker count, which the race-enabled tests in this
// package and in internal/experiments assert. Workers = 1 is the serial
// reference path.
//
// # Power-delivery chain
//
// Each slot may carry a power.PSUModel (per-spec, or a rack-wide default)
// and the rack a shared power.PDUModel: after every step the per-server
// DC draws are lifted through their PSU efficiency curves, summed, and
// passed through the PDU to the instantaneous wall draw at the utility
// feed. Telemetry tracks wall energy, conversion-loss energy and the peak
// wall draw next to the DC-side metrics; WallPowerWithAll answers the
// what-if query ("what would the wall draw if these slots carried extra
// DC load?") behind power-capped placement, and WallFloorSteps bounds it
// from below over the next grid steps, which lets the event kernel cross
// deferrals it can prove; FloorWalkView serves the telemetry the same
// walk predicts at each of those steps. New rejects a PSU or PDU curve
// that fails Validate: the chain must be nondecreasing in the DC draw for
// either query to mean anything. With no PSUs and no PDU the chain is the
// identity: wall telemetry mirrors the DC side exactly and the loss is
// exactly zero, so attaching the chain never perturbs the physics.
//
// # Facility cooling loop
//
// A cooling.Facility (CRAC + chiller, see internal/cooling) closes the
// chain past the wall: every wall Watt becomes room heat removed at a
// load- and setpoint-dependent cost, accounted serially after the barrier
// like every other reduction — cooling energy, facility energy (wall +
// cooling, integrated independently so the identity is a real property),
// the facility power peak and PUE. The CRAC's cold-aisle setpoint shifts
// every server's configured ambient by the same delta at construction,
// which is the facility-scope version of the paper's tradeoff: a warmer
// aisle makes the chiller cheaper per Watt but every server leakier and
// its fans busier. With no facility attached the cooling power is exactly
// zero, PUE is exactly 1, and every pre-existing metric is bit-identical
// to a facility-less rack.
//
// # Macro windows
//
// The event-driven kernel (internal/sched) splits Step's two halves:
// TickControllers applies loads and runs every fan controller for one
// decision instant, QuietHorizonCause asks how long every powered slot's
// controller promises to stay quiet (control.HorizonPromiser; a
// non-promising controller pins the horizon to one step), and Advance
// crosses the granted window in per-server closed-form macro-steps
// (server.MacroWindow) under the same determinism contract — the fan-out
// writes slot-i state only, and every roll-up runs serially in index
// order afterwards. Energies are
// integrated from each server's closed-form window energy, with the
// window's mean DC draw lifted through the PSU/PDU/CRAC chain once
// instead of per step; temperature maxima fold in every sub-step boundary
// sample. After TickControllers, Advance(dt, 1) leaves every server in
// exactly Step(dt)'s state (bar the MacroStats attribution) and costs one
// plain server.Step per slot, which is how the kernel preserves exact
// fixed-dt semantics wherever a quiet window cannot be granted; only the
// rack's energy meters differ, by rounding (Advance charges the
// window-mean draw ΔE/span, Step the endpoint draw).
//
// # Faults and health
//
// ApplyFault/ClearFault inject internal/fault events between steps — fan
// stick/failure (the bank's per-fan latches), PSU droop (a per-slot
// efficiency derate on the AC lift), PSU failure (server.SetPowered:
// dark slot, zero draw and heat, skipped controller tick), forced trips,
// ambient excursions and facility faults (a CRAC outage zeroes cooling
// power and heat-soaks every aisle; a degraded chiller inflates cooling
// power). Overlapping derates add up; ApplyFault refuses an edge that
// would take one slot's PSU derates, or the chiller derates, to 1 or more,
// and fault.Schedule.Validate rejects such a schedule up front. Both calls
// are serial rack mutations, never concurrent with Step/Advance. Between
// two edges a fault is one more constant input, so Advance macro-steps
// through fault windows and dark slots like any quiet interval (see
// server.MacroWindow). Health(i) folds the fault state into the
// scheduler-facing Healthy/Tripped/Failed view, and TripRisk reports when
// any live server sits inside the trip-guard band so the event kernel can
// shorten its windows to observe an imminent latch on the step it happens.
//
// When Config.ReliabilitySampleEvery > 0, each server's hottest die is
// sampled at that cadence (serially, at the observation instants of steps
// and macro windows) and folded through reliability.Analyze into the
// telemetry's roll-up: worst Arrhenius acceleration, worst time above the
// paper's 75 °C cap, summed thermal-cycling damage. Sampling off (the
// default) leaves every metric bit-identical to a rack without the
// feature. The sample traces are append-only: Snapshot hands a checkpoint
// capacity-capped views of them instead of copies, so a checkpoint costs
// O(slots), not O(samples), and ResetAccounting and Restore replace a
// trace rather than overwrite an array a checkpoint may share.
//
// The rack is the substrate for internal/sched: a dispatcher places jobs
// onto servers, the rack advances the physics, and the telemetry says
// which placement policy heated the room — and loaded the wall — least.
package rack
