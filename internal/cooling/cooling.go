package cooling

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// field pairs a parameter name with its value for the finiteness sweep.
type field struct {
	name string
	v    float64
}

// finiteFields rejects the first NaN or ±Inf parameter. Range checks
// alone cannot do this: NaN compares false against every bound, so a NaN
// field passes `< 0`-style validation and then poisons every power figure
// computed from the model.
func finiteFields(model string, fields ...field) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("cooling: %s %s must be finite, got %g", model, f.name, f.v)
		}
	}
	return nil
}

// CRACModel is the computer-room air conditioner: the air-side half of the
// facility loop. It blows supply air at the cold-aisle setpoint, collects
// the servers' exhaust as return air, and hands the picked-up heat to the
// chilled-water loop. Server configurations state their Ambient at the
// reference supply temperature; moving the setpoint shifts every inlet by
// the same delta (a well-mixed cold aisle), which is exactly the knob the
// facility-level fan/leakage tradeoff turns.
type CRACModel struct {
	// SupplyC is the cold-aisle supply-air setpoint.
	SupplyC units.Celsius
	// ReferenceC is the supply temperature at which server Config.Ambient
	// values were specified. SupplyC == ReferenceC means the CRAC feeds the
	// servers exactly the inlet temperatures they were configured with.
	ReferenceC units.Celsius
	// BlowerCoeff is the air-transport cost: blower power per Watt of heat
	// moved (dimensionless, e.g. 0.05 = 5%). The blower sits in the air
	// stream, so its own power joins the heat the chiller must remove.
	BlowerCoeff float64
}

// DefaultCRAC returns the reference room unit: 18 °C supply (the
// reference, so the default is the identity on server ambients) and a 5%
// air-transport cost.
func DefaultCRAC() CRACModel {
	return CRACModel{SupplyC: 18, ReferenceC: 18, BlowerCoeff: 0.05}
}

// Validate reports parameterization errors. Every field is additionally
// required to be finite: NaN compares false against any bound, so without
// the explicit checks a NaN coefficient would sail through the range
// tests and poison every downstream power figure.
func (c CRACModel) Validate() error {
	if err := finiteFields("CRAC",
		field{"supply setpoint", float64(c.SupplyC)},
		field{"reference supply", float64(c.ReferenceC)},
		field{"blower coefficient", c.BlowerCoeff},
	); err != nil {
		return err
	}
	if c.BlowerCoeff < 0 {
		return fmt.Errorf("cooling: CRAC blower coefficient must be >= 0, got %g", c.BlowerCoeff)
	}
	return nil
}

// AmbientDelta is the shift the setpoint applies to every server inlet:
// SupplyC − ReferenceC.
func (c CRACModel) AmbientDelta() units.Celsius { return c.SupplyC - c.ReferenceC }

// BlowerPower returns the air-mover power needed to transport heatW of
// server heat from the hot aisle back to the coil. Zero heat is exactly
// zero power — the identity half of the no-facility contract.
func (c CRACModel) BlowerPower(heatW float64) float64 {
	if heatW <= 0 {
		return 0
	}
	return c.BlowerCoeff * heatW
}

// ChillerModel produces the chilled water the CRAC coil consumes. Its
// coefficient of performance follows the classic surrogate
//
//	COP = COP0 · f(load, outdoor)
//	    = COP0 · (1 + SupplyGain·(Tsupply − SupplyRefC))
//	           · (1 − PartLoadDroop/(1 + load/PartLoadKneeW))
//	           / (1 + OutdoorPenalty·(Toutdoor − OutdoorRefC))
//
// — warmer supply water means less thermodynamic lift (COP up), partial
// load wastes compressor cycling (COP down), and a hot condenser side
// raises the lift again (COP down). The floor MinCOP keeps a degenerate
// parameterization from dividing cooling power by ~0.
type ChillerModel struct {
	COP0           float64       // nominal COP at reference supply/outdoor, full load
	SupplyRefC     units.Celsius // supply temperature COP0 is quoted at
	SupplyGain     float64       // fractional COP change per °C of warmer supply
	OutdoorC       units.Celsius // condenser-side outdoor air temperature
	OutdoorRefC    units.Celsius // outdoor temperature COP0 is quoted at
	OutdoorPenalty float64       // fractional COP loss per °C of hotter outdoor air
	PartLoadDroop  float64       // COP fraction lost at zero load
	PartLoadKneeW  float64       // load (W) where half of the droop is recovered
	MinCOP         float64       // hard floor on the resulting COP
}

// DefaultChiller returns a water-cooled unit in the rack-scale envelope:
// COP 4.5 at an 18 °C supply / 30 °C outdoor design point, 2%/°C penalty
// for hotter outdoor air, and a 25% part-load droop recovering by 1.5 kW.
// SupplyGain is the *net plant* sensitivity to a warmer supply — the
// compressor's lift saving after the pumping and approach-temperature
// overheads that don't scale with setpoint — which is what makes the
// facility-level sweet spot an interior setpoint rather than "as warm as
// the servers survive".
func DefaultChiller() ChillerModel {
	return ChillerModel{
		COP0:           4.5,
		SupplyRefC:     18,
		SupplyGain:     0.003,
		OutdoorC:       30,
		OutdoorRefC:    30,
		OutdoorPenalty: 0.02,
		PartLoadDroop:  0.25,
		PartLoadKneeW:  1500,
		MinCOP:         0.5,
	}
}

// Validate reports parameterization errors; every field must be finite
// (see finiteFields).
func (m ChillerModel) Validate() error {
	if err := finiteFields("chiller",
		field{"COP0", m.COP0},
		field{"supply reference", float64(m.SupplyRefC)},
		field{"supply gain", m.SupplyGain},
		field{"outdoor temperature", float64(m.OutdoorC)},
		field{"outdoor reference", float64(m.OutdoorRefC)},
		field{"outdoor penalty", m.OutdoorPenalty},
		field{"part-load droop", m.PartLoadDroop},
		field{"part-load knee", m.PartLoadKneeW},
		field{"MinCOP", m.MinCOP},
	); err != nil {
		return err
	}
	if m.COP0 <= 0 {
		return fmt.Errorf("cooling: chiller COP0 must be positive, got %g", m.COP0)
	}
	if m.MinCOP <= 0 {
		return fmt.Errorf("cooling: chiller MinCOP must be positive, got %g", m.MinCOP)
	}
	if m.PartLoadDroop < 0 || m.PartLoadDroop >= 1 {
		return fmt.Errorf("cooling: chiller part-load droop must be in [0,1), got %g", m.PartLoadDroop)
	}
	return nil
}

// COP returns the coefficient of performance at the given coil load and
// supply setpoint, floored at MinCOP.
func (m ChillerModel) COP(loadW float64, supply units.Celsius) float64 {
	if loadW < 0 {
		loadW = 0
	}
	knee := m.PartLoadKneeW
	if knee <= 0 {
		knee = 1
	}
	cop := m.COP0
	cop *= 1 + m.SupplyGain*float64(supply-m.SupplyRefC)
	cop *= 1 - m.PartLoadDroop/(1+loadW/knee)
	cop /= 1 + m.OutdoorPenalty*float64(m.OutdoorC-m.OutdoorRefC)
	if cop < m.MinCOP {
		cop = m.MinCOP
	}
	return cop
}

// Power returns the compressor power drawn to remove loadW of heat at the
// given supply setpoint: load/COP, exactly zero at zero load.
func (m ChillerModel) Power(loadW float64, supply units.Celsius) float64 {
	if loadW <= 0 {
		return 0
	}
	return loadW / m.COP(loadW, supply)
}

// EconomizerModel is the water-side economizer option: when the outdoor
// air is cold enough, the chilled-water loop bypasses the compressor and
// rejects heat through a dry cooler — "free cooling" that costs only pumps
// and heat-exchanger fans. The engagement test is a hard threshold on the
// chiller's outdoor temperature: real plants stage the change-over, but a
// step keeps the model's energy accounting exactly piecewise and the
// engaged/bypassed halves individually testable.
type EconomizerModel struct {
	// OutdoorBelowC engages the economizer when the chiller's condenser-side
	// outdoor temperature is at or below this threshold. A useful threshold
	// sits below the CRAC supply setpoint (the dry cooler needs approach
	// headroom to reject into).
	OutdoorBelowC units.Celsius
	// FreeCoeff is the free-cooling transport cost: pump + dry-cooler power
	// per Watt of heat rejected while engaged (dimensionless, e.g. 0.03 =
	// 3%). It replaces the chiller's compressor term entirely; the CRAC
	// blower is still paid — air must move regardless of who chills the
	// water.
	FreeCoeff float64
}

// DefaultEconomizer returns a water-side economizer engaging at 14 °C
// outdoor — 4 °C of approach below the default 18 °C supply — with a 3%
// transport cost, roughly an order of magnitude below the compressor's
// 1/COP at the default operating point.
func DefaultEconomizer() EconomizerModel {
	return EconomizerModel{OutdoorBelowC: 14, FreeCoeff: 0.03}
}

// Validate reports parameterization errors; both fields must be finite
// (see finiteFields).
func (e EconomizerModel) Validate() error {
	if err := finiteFields("economizer",
		field{"engagement threshold", float64(e.OutdoorBelowC)},
		field{"free-cooling coefficient", e.FreeCoeff},
	); err != nil {
		return err
	}
	if e.FreeCoeff < 0 {
		return fmt.Errorf("cooling: economizer free-cooling coefficient must be >= 0, got %g", e.FreeCoeff)
	}
	return nil
}

// Engaged reports whether the economizer is in free-cooling mode at the
// given outdoor temperature.
func (e EconomizerModel) Engaged(outdoor units.Celsius) bool {
	return outdoor <= e.OutdoorBelowC
}

// Facility is the assembled cooling loop: one CRAC on the air side feeding
// one chiller on the water side. Attached to a rack it consumes the rack's
// per-step wall heat (every wall Watt becomes room heat) and emits the
// facility-side telemetry — cooling power, facility power, PUE.
type Facility struct {
	CRAC    CRACModel
	Chiller ChillerModel
	// Econ, when non-nil, is the water-side economizer: while the chiller's
	// outdoor temperature sits at or below the engagement threshold, the
	// compressor term of CoolingPower is replaced by the free-cooling
	// transport cost (FreeCoeff per Watt of heat, blower included). nil — the
	// default — keeps the compression-only loop and every pre-existing
	// facility metric bit-identical.
	Econ *EconomizerModel
}

// DefaultFacility returns the default CRAC/chiller pair with the cold
// aisle at the given supply setpoint.
func DefaultFacility(supplyC units.Celsius) Facility {
	crac := DefaultCRAC()
	crac.SupplyC = supplyC
	return Facility{CRAC: crac, Chiller: DefaultChiller()}
}

// Validate reports parameterization errors in any stage.
func (f Facility) Validate() error {
	if err := f.CRAC.Validate(); err != nil {
		return err
	}
	if err := f.Chiller.Validate(); err != nil {
		return err
	}
	if f.Econ != nil {
		return f.Econ.Validate()
	}
	return nil
}

// EconomizerEngaged reports whether the facility is currently in
// free-cooling mode: an economizer is fitted and the chiller's outdoor
// temperature sits at or below its engagement threshold.
func (f Facility) EconomizerEngaged() bool {
	return f.Econ != nil && f.Econ.Engaged(f.Chiller.OutdoorC)
}

// AmbientDelta is the shift the facility's setpoint applies to every
// server inlet (see CRACModel.AmbientDelta).
func (f Facility) AmbientDelta() units.Celsius { return f.CRAC.AmbientDelta() }

// Split attributes the cooling power for wallW of IT heat to its stages:
// the CRAC blower moving the air, and the water side removing both the
// server heat and the blower's own dissipation — the chiller's compressor
// at the setpoint-dependent COP, or the economizer's free-cooling
// transport cost while engaged (cold outdoor air does the thermodynamic
// work).
func (f Facility) Split(wallW float64) (blowerW, chillerW float64) {
	if wallW <= 0 {
		return 0, 0
	}
	blowerW = f.CRAC.BlowerPower(wallW)
	if f.EconomizerEngaged() {
		return blowerW, f.Econ.FreeCoeff * (wallW + blowerW)
	}
	chillerW = f.Chiller.Power(wallW+blowerW, f.CRAC.SupplyC)
	return blowerW, chillerW
}

// CoolingPower returns the total facility-side power (blower + chiller)
// spent removing wallW of IT heat. Zero heat is exactly zero cooling
// power: a facility over an idle (unpowered) rack is the identity.
func (f Facility) CoolingPower(wallW float64) float64 {
	blowerW, chillerW := f.Split(wallW)
	return blowerW + chillerW
}

// FaultedCoolingPower is the cooling power spent removing wallW of IT heat
// under the facility-scope fault state: exactly zero with no facility (f
// nil) or while any of `outages` CRAC outages is active — the dark room
// unit spends nothing, and the heat soaks the aisles instead (the outage's
// ambient shift) — and otherwise CoolingPowerDerated at the summed chiller
// derate. A rack's facility and a room's shared bank both price their
// cooling through it.
func FaultedCoolingPower(f *Facility, wallW float64, outages int, derate float64) float64 {
	if f == nil || outages > 0 {
		return 0
	}
	return f.CoolingPowerDerated(wallW, derate)
}

// CoolingPowerDerated is CoolingPower with the plant's efficiency derated
// by the given fraction in [0, 1): the same heat removal drawn at
// 1/(1−derate) times the healthy power — the fault-injection surface for a
// degraded chiller (fault.ChillerDegraded). Zero derate is exactly
// CoolingPower; a derate at or past 1 is clamped to the representable
// maximum rather than dividing by ≤ 0.
func (f Facility) CoolingPowerDerated(wallW, derate float64) float64 {
	p := f.CoolingPower(wallW)
	if derate <= 0 {
		return p
	}
	if derate >= 1 {
		derate = 1 - 1e-9
	}
	return p / (1 - derate)
}
