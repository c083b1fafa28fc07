// Package server wires the CPU, memory, fan and thermal substrates into a
// simulated enterprise server that stands in for the paper's SPARC T3-2
// class machine. It exposes exactly the signals the paper's setup exposes:
// four CPU die temperature sensors (two per die), 32 DIMM temperatures,
// per-core voltage/current, whole-system power, and separately metered fan
// power.
//
// # Thermal-trip latching
//
// When the hottest die touches Config.CriticalTemp (paper: 90 °C), the
// service processor engages thermal protection: fans are forced to maximum
// and the trip flag LATCHES. Tripped() keeps reporting true for the rest
// of the run even after the machine cools back below the threshold — like
// a real machine's fault log, a trip is an event record, not a state
// readout. Nothing in Step, MacroWindow or the controllers ever clears it;
// the only reset is the operator's explicit ResetTrip (the clear leg of a
// fault.ServerTrip event uses it). Rack health (rack.Health) and the trace
// scheduler's kill/requeue logic key off this latch, so a server that
// tripped once stays out of placement until an explicit reset arrives.
//
// # Fault surfaces
//
// The fault-injection subsystem (internal/fault) drives a server through
// four orthogonal surfaces, all safe to call between steps only (never
// concurrently with Step):
//
//   - SetPowered(false) takes the machine dark — zero draw, zero injected
//     heat, fans spun down, dies relaxing to the aisle ambient. A dark
//     machine cannot trip.
//   - ForceTrip / ResetTrip latch and clear the thermal trip explicitly.
//   - SetAmbientOffset shifts the inlet ambient from its construction-time
//     base (CRAC outages, aisle excursions, room recirculation). It only
//     stores the ambient; the next step, macro anchor or prediction syncs
//     the thermal network's inputs to it.
//
// Fan-level faults (stick, fail) live on the fans.Bank reached via Fans().
//
// None of these surfaces changes how the server steps between them. A
// fault is one more input held constant until its next edge, so
// MacroWindow collapses the steps inside a fault window as it does any
// others, and a dark machine's relaxation collapses exactly (see
// MacroWindow). The only fallbacks to plain steps are the RK4 integrator,
// slewing fans and the trip-guard band.
package server
