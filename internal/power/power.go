package power

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// ActiveModel is the dynamic CPU power model Pactive = K1·U with U in
// percent. K1 is in Watts per percentage point.
type ActiveModel struct {
	K1 float64
}

// Power returns the active power at utilization u.
func (m ActiveModel) Power(u units.Percent) units.Watts {
	return units.Watts(m.K1 * float64(u.Clamp()))
}

// LeakageModel is the temperature-dependent leakage model
// Pleak = C + K2·e^(K3·T).
type LeakageModel struct {
	C, K2, K3 float64
}

// Power returns the leakage power at die temperature t.
func (m LeakageModel) Power(t units.Celsius) units.Watts {
	return units.Watts(m.C + m.K2*math.Exp(m.K3*float64(t)))
}

// Slope returns dPleak/dT at temperature t, used by the steady-state solver
// to detect thermal-runaway operating points.
func (m LeakageModel) Slope(t units.Celsius) float64 {
	return m.K2 * m.K3 * math.Exp(m.K3*float64(t))
}

// FanLaw is the cubic fan power law Pfan = Coeff·RPM³ for a whole fan bank.
// The paper: "fan power is a cubic function of fan speed".
type FanLaw struct {
	Coeff float64 // W / RPM³
}

// Power returns the bank power at speed r.
func (f FanLaw) Power(r units.RPM) units.Watts {
	v := float64(r)
	if v < 0 {
		v = 0
	}
	return units.Watts(f.Coeff * v * v * v)
}

// MemoryModel is the non-CPU dynamic power (DIMMs, IO) proportional to
// utilization: Pmem = Idle + KU·U.
type MemoryModel struct {
	Idle float64 // W at zero utilization
	KU   float64 // W per percentage point
}

// Power returns the memory subsystem power at utilization u.
func (m MemoryModel) Power(u units.Percent) units.Watts {
	return units.Watts(m.Idle + m.KU*float64(u.Clamp()))
}

// convEfficiency is the shared load-dependent efficiency curve of the
// power-delivery stages: eta(load) = eta0 − droop/(1+load/knee), rising
// from (eta0−droop) at zero load toward eta0 at high load, floored at 5%
// so a degenerate parameterization cannot divide wall power by ~0.
func convEfficiency(load, eta0, droop, knee float64) float64 {
	if load < 0 {
		load = 0
	}
	if knee <= 0 {
		knee = 1
	}
	eta := eta0 - droop/(1+load/knee)
	if eta < 0.05 {
		eta = 0.05
	}
	return eta
}

// validateCurve checks one delivery stage's efficiency-curve parameters:
// all finite, 0 < eta0 ≤ 1, 0 ≤ droop < eta0 and knee > 0. On that range
// the input power load/eta(load) has derivative
//
//	(eta0 − droop·(1+2x)/(1+x)²) / eta² ≥ (eta0 − droop) / eta² > 0,  x = load/knee,
//
// so the stage's input is strictly increasing in its load — the property
// power-capped placement and the event kernel's wall-floor proof rely on
// (internal/rack.WallFloorSteps). Outside it the 5 % efficiency floor can
// make the input fall as the load rises. The range checks reject NaN and
// infinite parameters too: NaN fails every comparison.
func validateCurve(stage string, eta0, droop, knee float64) error {
	switch {
	case !(eta0 > 0 && eta0 <= 1):
		return fmt.Errorf("power: %s Eta0 %g must be in (0, 1]", stage, eta0)
	case !(droop >= 0 && droop < eta0):
		return fmt.Errorf("power: %s Droop %g must be in [0, Eta0=%g)", stage, droop, eta0)
	case !(knee > 0 && knee <= math.MaxFloat64):
		return fmt.Errorf("power: %s Knee %g must be positive and finite", stage, knee)
	}
	return nil
}

// PSUModel converts DC load power to AC wall power through a load-dependent
// efficiency curve (efficiency sags at very low load). Efficiency is modelled
// as Eta0 - Droop/(1+load/Knee) which rises from (Eta0-Droop) at zero load
// toward Eta0 at high load.
type PSUModel struct {
	Eta0  float64 // asymptotic efficiency, e.g. 0.94
	Droop float64 // efficiency loss at zero load, e.g. 0.10
	Knee  float64 // load (W) where half of the droop is recovered
}

// Validate reports whether the curve parameters keep Wall strictly
// increasing in the DC load (see validateCurve).
func (p PSUModel) Validate() error { return validateCurve("PSU", p.Eta0, p.Droop, p.Knee) }

// DefaultPSU returns an 80-Plus-class server supply sized for the T3
// server's 400-1100 W DC envelope: 94% asymptotic efficiency, sagging
// toward 84% at no load, with half the droop recovered by 150 W.
func DefaultPSU() PSUModel { return PSUModel{Eta0: 0.94, Droop: 0.10, Knee: 150} }

// Wall returns the AC input power needed to deliver dc Watts.
func (p PSUModel) Wall(dc units.Watts) units.Watts {
	if dc <= 0 {
		return 0
	}
	return units.Watts(float64(dc) / p.Efficiency(dc))
}

// Efficiency returns the conversion efficiency at the given DC load.
func (p PSUModel) Efficiency(dc units.Watts) float64 {
	return convEfficiency(float64(dc), p.Eta0, p.Droop, p.Knee)
}

// PDUModel is the rack-level power distribution unit: every server PSU's
// AC input is fed from one PDU whose own losses (breakers, transformer,
// cabling) are load-dependent with the same curve family as the PSU. Its
// input is the rack's wall draw at the utility feed.
type PDUModel struct {
	Eta0  float64 // asymptotic efficiency, e.g. 0.98
	Droop float64 // efficiency loss at zero load, e.g. 0.04
	Knee  float64 // load (W) where half of the droop is recovered
}

// Validate reports whether the curve parameters keep Wall strictly
// increasing in the outlet load (see validateCurve).
func (p PDUModel) Validate() error { return validateCurve("PDU", p.Eta0, p.Droop, p.Knee) }

// DefaultPDU returns a rack PDU sized for tens of servers: 98% asymptotic
// efficiency with a small low-load droop and a 2 kW knee.
func DefaultPDU() PDUModel { return PDUModel{Eta0: 0.98, Droop: 0.04, Knee: 2000} }

// Wall returns the utility-side input power needed to deliver load Watts
// to the PDU's outlets (the summed PSU inputs).
func (p PDUModel) Wall(load units.Watts) units.Watts {
	if load <= 0 {
		return 0
	}
	return units.Watts(float64(load) / p.Efficiency(load))
}

// Efficiency returns the conversion efficiency at the given outlet load.
func (p PDUModel) Efficiency(load units.Watts) float64 {
	return convEfficiency(float64(load), p.Eta0, p.Droop, p.Knee)
}

// Breakdown attributes one instant of server power to its components, in
// Watts. Total is the sum of the parts.
type Breakdown struct {
	Idle    units.Watts
	Active  units.Watts
	Leakage units.Watts
	Memory  units.Watts
	Fan     units.Watts
}

// Total sums all components.
func (b Breakdown) Total() units.Watts {
	return b.Idle + b.Active + b.Leakage + b.Memory + b.Fan
}

// AboveIdle is the controllable part the paper's net-savings metric uses:
// everything except the constant idle floor.
func (b Breakdown) AboveIdle() units.Watts { return b.Total() - b.Idle }

func (b Breakdown) String() string {
	return fmt.Sprintf("total=%.1fW (idle=%.1f active=%.1f leak=%.1f mem=%.1f fan=%.1f)",
		float64(b.Total()), float64(b.Idle), float64(b.Active), float64(b.Leakage), float64(b.Memory), float64(b.Fan))
}

// ServerModel bundles all component models into the server's power budget.
type ServerModel struct {
	IdleFloor units.Watts // constant non-CPU baseline
	Active    ActiveModel
	Leakage   LeakageModel
	Fans      FanLaw
	Memory    MemoryModel
}

// At evaluates the budget at utilization u, CPU temperature t and fan speed r.
func (s ServerModel) At(u units.Percent, t units.Celsius, r units.RPM) Breakdown {
	return Breakdown{
		Idle:    s.IdleFloor,
		Active:  s.Active.Power(u),
		Leakage: s.Leakage.Power(t),
		Memory:  s.Memory.Power(u),
		Fan:     s.Fans.Power(r),
	}
}

// CPUHeat returns the power dissipated inside the CPU package (active +
// leakage), the quantity injected into the thermal model. Memory power heats
// the DIMMs; fan and idle-floor power is dissipated outside the airflow path
// relevant to the CPU dies (PSUs and disks sit beside the airflow in the
// paper's server).
func (s ServerModel) CPUHeat(u units.Percent, t units.Celsius) units.Watts {
	return s.Active.Power(u) + s.Leakage.Power(t)
}
