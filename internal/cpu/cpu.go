// Package cpu models the compute complex of the simulated server: two
// SPARC T3 style sockets with 16 cores of 8 hardware threads each (256
// threads total), per-core utilization accounting and the per-core
// voltage/current sensors CSTH exposes.
package cpu

import (
	"fmt"

	"repro/internal/units"
)

// Topology describes the socket/core/thread arrangement.
type Topology struct {
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
}

// T3Topology is the paper's server: 2 sockets × 16 cores × 8 threads.
func T3Topology() Topology {
	return Topology{Sockets: 2, CoresPerSocket: 16, ThreadsPerCore: 8}
}

// Cores returns the total core count.
func (t Topology) Cores() int { return t.Sockets * t.CoresPerSocket }

// Validate reports configuration errors.
func (t Topology) Validate() error {
	if t.Sockets <= 0 || t.CoresPerSocket <= 0 || t.ThreadsPerCore <= 0 {
		return fmt.Errorf("cpu: invalid topology %+v", t)
	}
	return nil
}

// Complex is the runtime CPU state: per-core utilization in [0,100].
type Complex struct {
	topo Topology
	util []float64 // per core, percent

	// uniform is true while every core carries uniformVal, the state LoadGen
	// always produces. It lets the per-step utilization queries skip the
	// O(cores) averaging loops, which otherwise dominate the simulation
	// step. SetCoreLoad clears it.
	uniform    bool
	uniformVal float64

	// electrical model for the V/I sensors
	coreVoltage float64 // V
	idleCurrent float64 // A per core at zero load
}

// NewComplex builds an idle CPU complex.
func NewComplex(topo Topology) (*Complex, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return &Complex{
		topo:        topo,
		util:        make([]float64, topo.Cores()),
		uniform:     true,
		coreVoltage: 1.0,
		idleCurrent: 0.35,
	}, nil
}

// Topology returns the configured topology.
func (c *Complex) Topology() Topology { return c.topo }

// SetUniformLoad spreads utilization u evenly across every core, the
// behaviour LoadGen guarantees ("the workload is evenly spread among the
// cores").
func (c *Complex) SetUniformLoad(u units.Percent) {
	v := float64(u.Clamp())
	if c.uniform && c.uniformVal == v {
		return // already at this level on every core
	}
	for i := range c.util {
		c.util[i] = v
	}
	c.uniform = true
	c.uniformVal = v
}

// SetCoreLoad sets one core's utilization.
func (c *Complex) SetCoreLoad(core int, u units.Percent) error {
	if core < 0 || core >= len(c.util) {
		return fmt.Errorf("cpu: core %d out of range [0,%d)", core, len(c.util))
	}
	c.util[core] = float64(u.Clamp())
	c.uniform = false
	return nil
}

// Utilization returns the machine-wide average utilization, the signal the
// LUT controller polls through sar/mpstat.
func (c *Complex) Utilization() units.Percent {
	if c.uniform {
		return units.Percent(c.uniformVal)
	}
	var s float64
	for _, u := range c.util {
		s += u
	}
	return units.Percent(s / float64(len(c.util)))
}

// SocketUtilization returns the average utilization of one socket.
func (c *Complex) SocketUtilization(socket int) (units.Percent, error) {
	if socket < 0 || socket >= c.topo.Sockets {
		return 0, fmt.Errorf("cpu: socket %d out of range [0,%d)", socket, c.topo.Sockets)
	}
	if c.uniform {
		return units.Percent(c.uniformVal), nil
	}
	per := c.topo.CoresPerSocket
	var s float64
	for i := socket * per; i < (socket+1)*per; i++ {
		s += c.util[i]
	}
	return units.Percent(s / float64(per)), nil
}

// VI reports the voltage and current sensors of one core, deriving current
// from the core's share of the given total CPU power (active+leakage). This
// is the "per-core voltage and current values" channel of CSTH.
func (c *Complex) VI(core int, totalCPUPower units.Watts) (volts, amps float64, err error) {
	if core < 0 || core >= len(c.util) {
		return 0, 0, fmt.Errorf("cpu: core %d out of range [0,%d)", core, len(c.util))
	}
	totalUtil := 0.0
	for _, u := range c.util {
		totalUtil += u
	}
	// Idle current is the per-core floor; the remaining power splits across
	// cores proportional to their utilization.
	nCores := float64(len(c.util))
	idlePower := c.idleCurrent * c.coreVoltage * nCores
	variable := float64(totalCPUPower) - idlePower
	if variable < 0 {
		variable = 0
	}
	share := 0.0
	if totalUtil > 0 {
		share = c.util[core] / totalUtil
	} else {
		share = 1 / nCores
	}
	amps = c.idleCurrent + variable*share/c.coreVoltage
	return c.coreVoltage, amps, nil
}

// SensorPowerSum returns Σ V·I across every core's sensor pair for the
// given total CPU power — what a reader polling all per-core rails would
// reconstruct. It performs the same per-core arithmetic as VI but shares
// the one O(cores) utilization sum across all cores, so the whole readout
// is a single O(cores) pass instead of the O(cores²) of calling VI per
// core. Results are bit-identical to the per-core VI loop.
func (c *Complex) SensorPowerSum(totalCPUPower units.Watts) float64 {
	totalUtil := 0.0
	for _, u := range c.util {
		totalUtil += u
	}
	nCores := float64(len(c.util))
	idlePower := c.idleCurrent * c.coreVoltage * nCores
	variable := float64(totalCPUPower) - idlePower
	if variable < 0 {
		variable = 0
	}
	var total float64
	for _, u := range c.util {
		share := 0.0
		if totalUtil > 0 {
			share = u / totalUtil
		} else {
			share = 1 / nCores
		}
		amps := c.idleCurrent + variable*share/c.coreVoltage
		total += c.coreVoltage * amps
	}
	return total
}
