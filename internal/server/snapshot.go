package server

import (
	"fmt"

	"repro/internal/fans"
	"repro/internal/mem"
	"repro/internal/randx"
	"repro/internal/thermal"
	"repro/internal/units"

	cpupkg "repro/internal/cpu"
)

// State is the serializable mutable state of a Server: the child-subsystem
// states plus every run-scoped scalar. AmbientOffset is stored relative to
// the construction-time base so a restore composes with the configuration
// the fresh server was built from. The leakage memo, sensor buffer, macro
// scratch and power breakdown are derived state — restore invalidates or
// recomputes them, bit-identically, from the restored inputs.
type State struct {
	CPU   cpupkg.State
	Mem   mem.State
	Fans  fans.State
	Net   thermal.State
	Noise randx.State

	Clock      float64
	EnergyJ    float64
	FanEnergyJ float64
	PeakW      float64
	Tripped    bool
	Powered    bool

	AmbientOffsetC float64

	Macro MacroStats
}

// State captures the server for a checkpoint.
func (s *Server) State() State {
	return State{
		CPU:            s.cpu.State(),
		Mem:            s.mem.State(),
		Fans:           s.fans.State(),
		Net:            s.net.State(),
		Noise:          s.noise.State(),
		Clock:          s.clock,
		EnergyJ:        float64(s.energy),
		FanEnergyJ:     float64(s.fanEnergy),
		PeakW:          float64(s.peak),
		Tripped:        s.tripped,
		Powered:        s.powered,
		AmbientOffsetC: float64(s.AmbientOffset()),
		Macro:          s.macroStats,
	}
}

// SetState restores a captured State into a server built from the same
// configuration, then rebuilds every derived quantity (thermal inputs,
// power breakdown) from the restored state.
func (s *Server) SetState(st State) error {
	if err := s.cpu.SetState(st.CPU); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := s.mem.SetState(st.Mem); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := s.fans.SetState(st.Fans); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if err := s.net.SetState(st.Net); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.noise.Restore(st.Noise)
	s.clock = st.Clock
	s.energy = units.Joules(st.EnergyJ)
	s.fanEnergy = units.Joules(st.FanEnergyJ)
	s.peak = units.Watts(st.PeakW)
	s.tripped = st.Tripped
	s.powered = st.Powered
	s.cfg.Ambient = s.baseAmbient + units.Celsius(st.AmbientOffsetC)
	s.macroStats = st.Macro
	s.leakValid = false
	s.syncThermalInputs()
	s.updateBreakdown()
	return nil
}
