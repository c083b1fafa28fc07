// Package power contains the power model components of the simulated
// server and the rack's power-delivery chain.
//
// The server-side decomposition follows Eqn. (1) of the paper:
//
//	Ptotal = Pactive + Pleak + Pfan
//
// with Pactive = k1·U and Pleak = C + k2·e^(k3·T) (Eqn. 2). These models
// are the simulator's ground truth; the fitting pipeline in
// internal/fitting must recover the constants from telemetry alone, which
// closes the loop on the paper's Section IV.
//
// Two additional components the paper folds into its "idle energy" are
// modelled explicitly so Table I energy magnitudes land in the right
// range: a constant non-CPU idle floor and a utilization-proportional
// memory/IO component (both are excluded from the leakage analysis,
// exactly as the paper excludes idle energy from its net-savings
// computation).
//
// # Power-delivery chain
//
// PSUModel and PDUModel extend the DC budget to the wall: a per-server
// supply converts DC load to AC input, and a shared rack-level
// distribution unit lifts the summed PSU inputs to the utility feed. Both
// share one curve family, eta(load) = Eta0 − Droop/(1+load/Knee) —
// efficiency sags at low load and approaches Eta0 asymptotically — so
// conversion losses are monotone in load and every DC watt a placement
// saves is amplified at the wall. Validate admits the parameters that
// provably keep the input power increasing in the load (finite,
// 0 < Eta0 ≤ 1, 0 ≤ Droop < Eta0, Knee > 0). internal/rack owns the
// roll-up and the wall-side telemetry; this package only defines the
// curves.
package power
