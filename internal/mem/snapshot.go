package mem

import "fmt"

// State is the serializable mutable state of a Bank: the DIMM temperatures.
// The lag-coefficient and inlet-preheat memos are derived caches — restoring
// invalidates them and the next Step recomputes both, bit-identically,
// because they are pure functions of (dt) and (utilization, fan speed). The
// MaxTemp/TempSum roll-ups are derived from Temps and recomputed on restore.
type State struct {
	Temps []float64
}

// State captures the bank for a checkpoint.
func (b *Bank) State() State {
	st := State{Temps: make([]float64, len(b.temps))}
	copy(st.Temps, b.temps)
	return st
}

// SetState restores a captured State into a bank built from the same
// configuration.
func (b *Bank) SetState(st State) error {
	if len(st.Temps) != len(b.temps) {
		return fmt.Errorf("mem: state has %d DIMMs, bank has %d", len(st.Temps), len(b.temps))
	}
	copy(b.temps, st.Temps)
	b.refreshRollups()
	b.alphaDt = 0
	b.phValid = false
	return nil
}
