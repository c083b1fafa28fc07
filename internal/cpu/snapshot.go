package cpu

import "fmt"

// State is the serializable mutable state of a Complex: per-core
// utilization plus the uniform-load fast-path flags. While Uniform holds,
// every core carries UniformVal and Util is left empty: every binary loads
// its cores uniformly, so a checkpoint carries one value instead of one
// per core. A state with Uniform false carries one value per core. The
// electrical constants and topology are construction parameters and stay
// outside the snapshot.
type State struct {
	Util       []float64
	Uniform    bool
	UniformVal float64
}

// State captures the complex for a checkpoint.
func (c *Complex) State() State {
	st := State{Uniform: c.uniform, UniformVal: c.uniformVal}
	if !c.uniform {
		st.Util = append([]float64(nil), c.util...)
	}
	return st
}

// SetState restores a captured State into a complex built from the same
// topology. A uniform state refills every core with UniformVal, whether
// its Util is empty or, as older checkpoints carry it, one value per core.
func (c *Complex) SetState(st State) error {
	if len(st.Util) != len(c.util) && (!st.Uniform || len(st.Util) != 0) {
		return fmt.Errorf("cpu: state Util has %d cores, complex has %d", len(st.Util), len(c.util))
	}
	if st.Uniform {
		for i := range c.util {
			c.util[i] = st.UniformVal
		}
	} else {
		copy(c.util, st.Util)
	}
	c.uniform = st.Uniform
	c.uniformVal = st.UniformVal
	return nil
}
