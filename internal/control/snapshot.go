package control

import (
	"fmt"

	"repro/internal/units"
)

// State is the serializable mutable state of a controller, shaped as a
// generic tagged record so the rack can snapshot heterogeneous controller
// populations without knowing the concrete types. Kind names the policy and
// must match on restore; the slices carry the policy's mutable fields in a
// fixed documented order. Configuration (thresholds, tables, cadences) is a
// construction parameter and stays outside the snapshot.
type State struct {
	Kind   string
	Bools  []bool
	Floats []float64
}

// Snapshotter is the opt-in contract for controllers that can be carried
// across a checkpoint. All three shipped policies implement it; a custom
// controller that does not is rejected at checkpoint time rather than
// silently resuming with stale state.
type Snapshotter interface {
	ControlState() State
	SetControlState(State) error
}

func kindErr(want string, st State) error {
	return fmt.Errorf("control: state kind %q does not match controller %q", st.Kind, want)
}

// ControlState implements Snapshotter. Bools: [set].
func (d *Default) ControlState() State {
	return State{Kind: "Default", Bools: []bool{d.set}}
}

// SetControlState implements Snapshotter.
func (d *Default) SetControlState(st State) error {
	if st.Kind != "Default" || len(st.Bools) != 1 {
		return kindErr("Default", st)
	}
	d.set = st.Bools[0]
	return nil
}

// ControlState implements Snapshotter. Bools: [started]; Floats: [nextDue,
// lastRPM].
func (b *BangBang) ControlState() State {
	return State{Kind: "BangBang", Bools: []bool{b.started}, Floats: []float64{b.nextDue, float64(b.lastRPM)}}
}

// SetControlState implements Snapshotter.
func (b *BangBang) SetControlState(st State) error {
	if st.Kind != "BangBang" || len(st.Bools) != 1 || len(st.Floats) != 2 {
		return kindErr("BangBang", st)
	}
	b.started = st.Bools[0]
	b.nextDue = st.Floats[0]
	b.lastRPM = units.RPM(st.Floats[1])
	return nil
}

// ControlState implements Snapshotter. Bools: [haveLast, started]; Floats:
// [nextPoll, holdTill, lastUtil, quietUntil] (quietUntil may be +Inf, which
// the snap codec preserves exactly: floats travel as their raw bits).
func (l *LUT) ControlState() State {
	return State{
		Kind:   "LUT",
		Bools:  []bool{l.haveLast, l.started},
		Floats: []float64{l.nextPoll, l.holdTill, float64(l.lastUtil), l.quietUntil},
	}
}

// SetControlState implements Snapshotter.
func (l *LUT) SetControlState(st State) error {
	if st.Kind != "LUT" || len(st.Bools) != 2 || len(st.Floats) != 4 {
		return kindErr("LUT", st)
	}
	l.haveLast = st.Bools[0]
	l.started = st.Bools[1]
	l.nextPoll = st.Floats[0]
	l.holdTill = st.Floats[1]
	l.lastUtil = units.Percent(st.Floats[2])
	l.quietUntil = st.Floats[3]
	return nil
}
