package server

import (
	"fmt"

	"repro/internal/telemetry"
)

// AttachTelemetry registers the paper's full CSTH channel list (Section
// III) on a harness:
//
//   - 4 CPU temperature values (2 thermal sensors per die),
//   - 32 memory temperature values (1 per DIMM),
//   - per-core voltage and current values,
//   - power consumed by the whole system,
//
// plus the fan power and mean fan speed that the paper's external-supply
// setup makes separately observable. Drive the harness with
// h.Advance(srv.Now()) after each simulation step.
func (s *Server) AttachTelemetry(h *telemetry.Harness) error {
	// CPU die temperature sensors: cpu<die>.temp<sensor>.
	for die := 0; die < len(s.dieNodes); die++ {
		for sensor := 0; sensor < 2; sensor++ {
			die, sensor := die, sensor
			name := fmt.Sprintf("cpu%d.temp%d", die, sensor)
			err := h.Register(name, func() float64 {
				readings := s.CPUTempSensors()
				return float64(readings[die*2+sensor])
			})
			if err != nil {
				return err
			}
		}
	}
	// DIMM temperatures.
	for i := 0; i < s.mem.NumDIMMs(); i++ {
		i := i
		name := fmt.Sprintf("dimm%02d.temp", i)
		err := h.Register(name, func() float64 {
			t, err := s.mem.Temp(i)
			if err != nil {
				return 0
			}
			return float64(t)
		})
		if err != nil {
			return err
		}
	}
	// Per-core voltage and current.
	cores := s.cpu.Topology().Cores()
	for core := 0; core < cores; core++ {
		core := core
		errV := h.Register(fmt.Sprintf("core%02d.volts", core), func() float64 {
			v, _, err := s.cpu.VI(core, s.cfg.Power.CPUHeat(s.Utilization(), s.MaxCPUTemp()))
			if err != nil {
				return 0
			}
			return v
		})
		if errV != nil {
			return errV
		}
		errI := h.Register(fmt.Sprintf("core%02d.amps", core), func() float64 {
			_, a, err := s.cpu.VI(core, s.cfg.Power.CPUHeat(s.Utilization(), s.MaxCPUTemp()))
			if err != nil {
				return 0
			}
			return a
		})
		if errI != nil {
			return errI
		}
	}
	// Whole-system power and the separately metered fan channel.
	if err := h.Register("system.power", func() float64 {
		return float64(s.MeasuredSystemPower())
	}); err != nil {
		return err
	}
	if err := h.Register("fans.power", func() float64 {
		return float64(s.MeasuredFanPower())
	}); err != nil {
		return err
	}
	if err := h.Register("fans.rpm", func() float64 {
		return float64(s.fans.MeanRPM())
	}); err != nil {
		return err
	}
	return nil
}
