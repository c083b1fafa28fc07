package server

import (
	"fmt"

	"repro/internal/fans"
	"repro/internal/mathx"
	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/randx"
	"repro/internal/thermal"
	"repro/internal/units"

	cpupkg "repro/internal/cpu"
)

// Server is the composite simulated machine.
type Server struct {
	cfg Config

	cpu  *cpupkg.Complex
	mem  *mem.Bank
	fans *fans.Bank

	net       *thermal.Network
	dieNodes  []thermal.NodeID // one per socket
	sinkNodes []thermal.NodeID
	sinkLinks []thermal.LinkID
	inlet     thermal.BoundaryID

	noise *randx.Source

	clock     float64      // seconds since power-on
	energy    units.Joules // total system energy consumed
	fanEnergy units.Joules // fan-only energy (separately metered)
	peak      units.Watts
	tripped   bool

	// Fault-injection state (see internal/fault and doc.go). powered=false
	// is a dark machine: zero draw, zero injected heat, fans spun down.
	// baseAmbient anchors SetAmbientOffset.
	powered     bool
	baseAmbient units.Celsius

	lastBreakdown power.Breakdown

	// Memo of the last leakage-power evaluation. Leakage is an exponential
	// in temperature and is queried three times per step — once per socket
	// and once at the hottest die — at temperatures that coincide whenever
	// the sockets run symmetric loads, so remembering one (temp, power)
	// pair removes most math.Exp calls from the hot loop.
	leakValid bool
	leakTemp  units.Celsius
	leakPower float64

	sensorBuf []units.Celsius // reused by AppendCPUTempSensors

	// Macro-step scratch (event-stepping kernel), reused across calls.
	macroSlopes []float64
	macroSums   []float64

	// Band-prediction scratch (BandDecisionHorizon), reused across calls.
	predTemps  []float64
	predPowers []float64
	predSlopes []float64

	macroStats MacroStats // lifetime macro-vs-plain attribution (macro.go)
}

// New constructs a server from cfg, starting in thermal equilibrium at idle
// with fans at the configured initial speed.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cpx, err := cpupkg.NewComplex(cfg.CPU)
	if err != nil {
		return nil, err
	}
	memBank, err := mem.NewBank(cfg.Mem, cfg.Ambient)
	if err != nil {
		return nil, err
	}
	fanBank, err := fans.NewBank(cfg.Fans)
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:         cfg,
		cpu:         cpx,
		mem:         memBank,
		fans:        fanBank,
		net:         newNetwork(cfg),
		noise:       randx.New(cfg.NoiseSeed),
		powered:     true,
		baseAmbient: cfg.Ambient,
	}

	s.inlet = s.net.AddBoundary("inlet", float64(cfg.Ambient))
	for sock := 0; sock < cfg.CPU.Sockets; sock++ {
		die, err := s.net.AddNode(fmt.Sprintf("die%d", sock), cfg.CDie, float64(cfg.Ambient))
		if err != nil {
			return nil, err
		}
		sink, err := s.net.AddNode(fmt.Sprintf("sink%d", sock), cfg.CSink, float64(cfg.Ambient))
		if err != nil {
			return nil, err
		}
		if _, err := s.net.ConnectNodes(die, sink, 1/cfg.RDie); err != nil {
			return nil, err
		}
		link, err := s.net.ConnectBoundary(sink, s.inlet, 1/s.sinkResistance(fanBank.MeanRPM()))
		if err != nil {
			return nil, err
		}
		s.dieNodes = append(s.dieNodes, die)
		s.sinkNodes = append(s.sinkNodes, sink)
		s.sinkLinks = append(s.sinkLinks, link)
	}

	// Start in idle equilibrium so experiments can apply the paper's
	// cold-start protocol explicitly.
	s.syncThermalInputs()
	if err := s.net.Settle(); err != nil {
		return nil, err
	}
	s.mem.Settle(cfg.Ambient, 0, fanBank.MeanRPM())
	s.updateBreakdown()
	return s, nil
}

// newNetwork builds the RC network with the configured stepping scheme.
func newNetwork(cfg Config) *thermal.Network {
	net := thermal.NewNetwork(cfg.MaxThermalStep)
	net.SetIntegrator(cfg.ThermalIntegrator)
	return net
}

// sinkResistance returns the per-socket sink-to-air resistance at speed r.
func (s *Server) sinkResistance(r units.RPM) float64 {
	rpm := float64(r)
	if rpm < 1 {
		rpm = 1
	}
	return s.cfg.RSinkBase + s.cfg.RSinkFlow/rpm
}

// syncThermalInputs refreshes boundary temperature, conductances and node
// powers from the current utilization, fan speed and die temperatures.
func (s *Server) syncThermalInputs() {
	if !s.powered {
		// Dark machine: no preheat, no injected heat; the sinks cool to the
		// aisle through the zero-airflow resistance.
		_ = s.net.SetBoundaryTemp(s.inlet, float64(s.cfg.Ambient))
		g := 1 / s.sinkResistance(0)
		for i, link := range s.sinkLinks {
			_ = s.net.SetConductance(link, g)
			_ = s.net.SetPower(s.dieNodes[i], 0)
		}
		return
	}
	u := s.cpu.Utilization()
	rpm := s.fans.MeanRPM()
	preheat := s.mem.InletPreheat(u, rpm)
	_ = s.net.SetBoundaryTemp(s.inlet, float64(s.cfg.Ambient+preheat))

	g := 1 / s.sinkResistance(rpm)
	nSockets := len(s.dieNodes)
	for i, link := range s.sinkLinks {
		_ = s.net.SetConductance(link, g)
		// Per-socket heat: the socket's share of active power plus its own
		// die's leakage share.
		// Active.Power takes machine-wide percent; each socket contributes
		// k1·U_socket/nSockets so that uniform load sums to k1·U.
		sockU, _ := s.cpu.SocketUtilization(i)
		active := float64(s.cfg.Power.Active.Power(sockU)) / float64(nSockets)
		leak := s.leakageAt(units.Celsius(s.net.Temp(s.dieNodes[i]))) / float64(nSockets)
		_ = s.net.SetPower(s.dieNodes[i], active+leak)
	}
}

// leakageAt returns the configured leakage power at temperature t,
// remembering the last evaluation (see the memo fields on Server).
func (s *Server) leakageAt(t units.Celsius) float64 {
	if s.leakValid && t == s.leakTemp {
		return s.leakPower
	}
	s.leakTemp = t
	s.leakPower = float64(s.cfg.Power.Leakage.Power(t))
	s.leakValid = true
	return s.leakPower
}

func (s *Server) updateBreakdown() {
	if !s.powered {
		s.lastBreakdown = power.Breakdown{}
		return
	}
	s.lastBreakdown = s.breakdownAt(s.leakageAt(s.MaxCPUTemp()))
}

// breakdownAt is the power breakdown of a powered server at its current
// utilization and fan speed, with leakW of leakage.
func (s *Server) breakdownAt(leakW float64) power.Breakdown {
	u := s.cpu.Utilization()
	return power.Breakdown{
		Idle:    s.cfg.Power.IdleFloor,
		Active:  s.cfg.Power.Active.Power(u),
		Leakage: units.Watts(leakW),
		Memory:  s.cfg.Power.Memory.Power(u),
		Fan:     s.fans.Power(),
	}
}

// Step advances the whole server by dt seconds.
func (s *Server) Step(dt float64) {
	if dt <= 0 {
		return
	}
	if s.powered {
		s.fans.Step(dt)
	}
	s.syncThermalInputs()
	s.net.Step(dt)
	if s.powered {
		s.mem.Step(dt, s.cfg.Ambient, s.cpu.Utilization(), s.fans.MeanRPM())
	} else {
		s.mem.Step(dt, s.cfg.Ambient, 0, 0)
	}

	// Thermal protection: above the critical threshold the service
	// processor forces maximum cooling, as a real machine would. The trip
	// latches — see Tripped — and a dark machine cannot trip (it is
	// cooling with nothing driving it).
	if s.powered && s.MaxCPUTemp() >= s.cfg.CriticalTemp {
		s.tripped = true
		_, hi := s.fans.Range()
		s.fans.SetAll(hi)
	}

	s.updateBreakdown()
	total := s.lastBreakdown.Total()
	s.energy += units.Energy(total, dt)
	s.fanEnergy += units.Energy(s.lastBreakdown.Fan, dt)
	if total > s.peak {
		s.peak = total
	}
	s.clock += dt
}

// SetLoad applies a uniform utilization across all cores (LoadGen's even
// spreading).
func (s *Server) SetLoad(u units.Percent) { s.cpu.SetUniformLoad(u) }

// Utilization returns the true machine-wide utilization.
func (s *Server) Utilization() units.Percent { return s.cpu.Utilization() }

// Fans returns the fan bank, the actuation surface for controllers.
func (s *Server) Fans() *fans.Bank { return s.fans }

// Memory returns the DIMM bank.
func (s *Server) Memory() *mem.Bank { return s.mem }

// Config returns the server configuration.
func (s *Server) Config() Config { return s.cfg }

// Now returns seconds since power-on.
func (s *Server) Now() float64 { return s.clock }

// MaxCPUTemp returns the hottest true die temperature.
func (s *Server) MaxCPUTemp() units.Celsius {
	m := units.Celsius(-1e9)
	for _, n := range s.dieNodes {
		if t := units.Celsius(s.net.Temp(n)); t > m {
			m = t
		}
	}
	return m
}

// StateSum folds the server's continuous state — every thermal node,
// every DIMM temperature, the ambient, and the mean fan speed — into one
// plain sum. Max-style telemetry roll-ups skip NaN in their comparisons
// and the leakage curve clamps temperature, so a NaN born in the thermal
// network never reaches the power aggregates; this sum is the one number
// a non-finite value cannot hide from. The run-level divergence guard
// reads it after every advance.
func (s *Server) StateSum() float64 {
	return s.net.TempSum() + s.mem.TempSum() +
		float64(s.cfg.Ambient) + float64(s.fans.MeanRPM())
}

// InletTemp returns the true CPU inlet air temperature: the configured
// ambient plus the DIMM preheat at the current utilization and fan speed.
// Rack-level telemetry aggregates this across heterogeneous servers.
// A dark machine has no preheat: its inlet sits at the aisle ambient.
func (s *Server) InletTemp() units.Celsius {
	if !s.powered {
		return s.cfg.Ambient
	}
	return s.cfg.Ambient + s.mem.InletPreheat(s.cpu.Utilization(), s.fans.MeanRPM())
}

// InletPreheat returns the DIMM preheat InletTemp adds to a powered
// machine's ambient, at the current utilization and fan speed, by
// InletTemp's own expression. A caller that holds it can follow an
// ambient change without asking the server again: on a powered machine
// Ambient() + InletPreheat() is InletTemp, bit for bit, and on a dark one
// InletTemp is Ambient().
func (s *Server) InletPreheat() units.Celsius {
	return s.mem.InletPreheat(s.cpu.Utilization(), s.fans.MeanRPM())
}

// Ambient returns the inlet ambient the server currently steps under:
// BaseAmbient shifted by the current offset (SetAmbientOffset).
func (s *Server) Ambient() units.Celsius { return s.cfg.Ambient }

// BaseAmbient returns the construction-time ambient the offsets shift.
func (s *Server) BaseAmbient() units.Celsius { return s.baseAmbient }

// ShiftedAmbient returns the ambient SetAmbientOffset(AmbientOffset()+delta)
// leaves on a server built at base and stepping at ambient, bit for bit: a
// caller that mirrors a server's ambient follows a shift without touching
// the server.
func ShiftedAmbient(base, ambient, delta units.Celsius) units.Celsius {
	return base + ((ambient - base) + delta)
}

// CPUTempSensors returns the paper's four CPU temperature readings (two
// thermal sensors per die: one near the hot spot, one near the die edge)
// including sensor noise.
func (s *Server) CPUTempSensors() []units.Celsius {
	return s.appendCPUTempSensors(make([]units.Celsius, 0, 2*len(s.dieNodes)))
}

// CPUTempSensorsReuse is CPUTempSensors into a buffer owned by the server,
// valid until the next call — the allocation-free variant the per-second
// controller tick uses.
func (s *Server) CPUTempSensorsReuse() []units.Celsius {
	s.sensorBuf = s.appendCPUTempSensors(s.sensorBuf[:0])
	return s.sensorBuf
}

func (s *Server) appendCPUTempSensors(out []units.Celsius) []units.Celsius {
	offsets := [2]float64{s.cfg.HotSpotOffset, s.cfg.EdgeOffset}
	for _, n := range s.dieNodes {
		t := s.net.Temp(n)
		for k := 0; k < 2; k++ {
			out = append(out, units.Celsius(t+offsets[k]+s.noise.Normal(0, s.cfg.TempNoise)))
		}
	}
	return out
}

// MeasuredSystemPower returns the whole-system power sensor reading
// (noisy), the paper's "power consumed by the whole system" channel.
func (s *Server) MeasuredSystemPower() units.Watts {
	return s.lastBreakdown.Total() + units.Watts(s.noise.Normal(0, s.cfg.PowerNoise))
}

// MeasuredCPUPower reconstructs total CPU power (active + leakage) from the
// per-core voltage/current sensors, with rail-measurement noise. This is
// the channel that lets the paper isolate Pactive+Pleak from the rest of
// the system. The readout is a single O(cores) pass (bit-identical to
// summing VI per core, which would be O(cores²)).
func (s *Server) MeasuredCPUPower() units.Watts {
	truth := s.cfg.Power.CPUHeat(s.cpu.Utilization(), s.MaxCPUTemp())
	total := s.cpu.SensorPowerSum(truth)
	total += s.noise.Normal(0, s.cfg.PowerNoise)
	if total < 0 {
		total = 0
	}
	return units.Watts(total)
}

// MeasuredFanPower returns the separately metered fan power (noisy). This
// is what the paper's external-supply setup uniquely enables.
func (s *Server) MeasuredFanPower() units.Watts {
	p := s.fans.Power() + units.Watts(s.noise.Normal(0, s.cfg.PowerNoise/3))
	if p < 0 {
		p = 0
	}
	return p
}

// Breakdown returns the true component-level power attribution.
func (s *Server) Breakdown() power.Breakdown { return s.lastBreakdown }

// Energy returns total energy consumed since power-on.
func (s *Server) Energy() units.Joules { return s.energy }

// FanEnergy returns fan-only energy since power-on.
func (s *Server) FanEnergy() units.Joules { return s.fanEnergy }

// PeakPower returns the highest instantaneous total power observed.
func (s *Server) PeakPower() units.Watts { return s.peak }

// Tripped reports whether thermal protection ever engaged. The trip
// LATCHES: once the hottest die touches Config.CriticalTemp (or ForceTrip
// is called) the flag stays true for the rest of the run even after the
// machine cools, exactly like a real service processor's fault log.
// Clearing requires the operator's explicit ResetTrip. See doc.go.
func (s *Server) Tripped() bool { return s.tripped }

// ForceTrip latches the thermal trip immediately (fault injection:
// fault.ServerTrip), driving the fans to maximum exactly as a natural trip
// would.
func (s *Server) ForceTrip() {
	s.tripped = true
	_, hi := s.fans.Range()
	s.fans.SetAll(hi)
}

// ResetTrip is the operator's explicit trip reset — the only way the
// latched Tripped flag clears. The fans keep their current command; the
// controller's next tick re-decides the speed.
func (s *Server) ResetTrip() { s.tripped = false }

// TripRisk reports whether the machine is live and within tripGuardC of
// its critical temperature — the zone where macro-stepping already refuses
// to coarsen (see macro.go) and where the rack trace runner shortens its
// event-kernel windows so a natural trip is observed on the step it
// happens.
func (s *Server) TripRisk() bool {
	return s.powered && !s.tripped && s.MaxCPUTemp() >= s.cfg.CriticalTemp-tripGuardC
}

// SetPowered powers the machine on or off (fault injection: fault.PSUFail
// takes it dark). Powering off spins the fans down, drops the load and
// zeroes the power breakdown — the slot draws nothing and injects no heat
// while dark, and its dies relax toward the aisle ambient. Powering back
// on restores nothing by itself: the machine rejoins cold and idle, fans
// slewing back to their last command, and the scheduler re-places work.
func (s *Server) SetPowered(on bool) {
	if s.powered == on {
		return
	}
	s.powered = on
	if !on {
		s.cpu.SetUniformLoad(0)
		s.fans.Spindown()
	}
	s.leakValid = false
	s.syncThermalInputs()
	s.updateBreakdown()
}

// Powered reports whether the machine is drawing power (false = dark,
// see SetPowered).
func (s *Server) Powered() bool { return s.powered }

// FansSettled reports whether the fan bank has reached its commanded
// speeds (fans.Bank.Settled) — false while a slew is in flight.
func (s *Server) FansSettled() bool { return s.fans.Settled() }

// SetAmbientOffset shifts the inlet ambient to the construction-time base
// plus delta °C (fault injection: ambient excursions and CRAC-outage heat
// soak; the room's recirculation re-anchor). Offsets compose additively;
// pass the summed offset. It stores the new ambient and nothing else: the
// thermal network's inputs are re-derived by whatever next uses them —
// Step, the macro-window anchors (MacroWindow) and the trajectory
// predictions (BandDecisionHorizon, DieFloor) each sync them first, and
// SetState after a restore — so a room re-anchoring every segment writes
// one float per server.
func (s *Server) SetAmbientOffset(delta units.Celsius) {
	s.cfg.Ambient = s.baseAmbient + delta
}

// AmbientOffset returns the current shift from the construction-time
// ambient.
func (s *Server) AmbientOffset() units.Celsius { return s.cfg.Ambient - s.baseAmbient }

// ResetAccounting zeroes energy/peak accounting, used at the start of the
// measured window of an experiment (after stabilization).
func (s *Server) ResetAccounting() {
	s.energy = 0
	s.fanEnergy = 0
	s.peak = 0
}

// SteadyTemp predicts the equilibrium die temperature at utilization u and
// fan speed r by fixed-point iteration over the leakage feedback. It returns
// an error when the operating point is thermally unstable (runaway). The
// inlet preheat is computed directly from the memory configuration — no
// per-call mem.Bank construction — which keeps lut.Build (a grid of these
// queries, also behind the leakage-aware rack placement policy) cheap.
func SteadyTemp(cfg Config, u units.Percent, r units.RPM) (units.Celsius, error) {
	if err := cfg.Mem.Validate(); err != nil {
		return 0, err
	}
	preheat := float64(cfg.Mem.InletPreheat(u, r))
	rth := cfg.RthServer(r)
	active := float64(cfg.Power.Active.Power(u))
	f := func(t float64) float64 {
		leak := float64(cfg.Power.Leakage.Power(units.Celsius(t)))
		return float64(cfg.Ambient) + preheat + rth*(active+leak)
	}
	t, err := mathx.FixedPoint(f, float64(cfg.Ambient)+30, 1e-6, 500)
	if err != nil {
		return units.Celsius(t), fmt.Errorf("server: unstable operating point U=%v RPM=%v: %w", u, r, err)
	}
	// Reject points beyond the stability knee even if iteration converged.
	if cfg.Power.Leakage.Slope(units.Celsius(t))*rth >= 1 {
		return units.Celsius(t), fmt.Errorf("server: thermal runaway at U=%v RPM=%v (T=%.1f)", u, r, t)
	}
	return units.Celsius(t), nil
}
