package rack

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/server"
	"repro/internal/units"
)

// SlotState is the serializable mutable state of one rack slot: the server,
// the slot's fan-control policy (nil when none is attached), the dispatcher
// load and the fault/accounting scalars. The per-window scratch fields are
// derived and stay out.
type SlotState struct {
	Server     server.State
	Ctrl       *control.State
	Load       float64
	FanChanges int
	PSUDerate  float64
}

// State is the serializable mutable state of a Rack built from the same
// Config: every slot plus the rack-level meters, peaks, facility-scope
// fault state, fault-edge counters and the reliability sampling cursor.
//
// RelSamples holds one hottest-die trace per slot when the rack samples
// reliability, and is empty when it does not. Snapshot shares the traces
// with the rack (see Snapshot), so a State must be treated as read-only.
type State struct {
	Slots []SlotState
	Clock float64

	PeakPowerW float64
	MaxCPUC    float64
	MaxDIMMC   float64
	MaxInletC  float64

	LastDCW     float64
	LastWallW   float64
	PeakWallW   float64
	DCEnergyJ   float64
	WallEnergyJ float64

	LastCoolW   float64
	PeakFacW    float64
	CoolEnergyJ float64
	FacEnergyJ  float64

	CracOut       int
	ChillerDerate float64

	FaultsApplied int
	FaultsCleared int

	RelNext    float64
	RelSamples [][]float64
}

// Snapshot captures the rack for a checkpoint. It must be called between
// steps (never concurrently with Step/Advance), like every other rack-level
// read. A slot carrying a controller that does not implement
// control.Snapshotter cannot be carried across a checkpoint and errors here
// rather than resuming with stale policy state.
//
// The reliability traces are not copied. The rack only ever appends to
// them, so the State gets capacity-capped views: the samples a view covers
// are never written again, and an append past the end of a view cannot
// reach it. ResetAccounting and Restore start fresh traces instead of
// overwriting shared ones, so a State stays valid however the rack runs
// on.
func (r *Rack) Snapshot() (State, error) {
	st := State{
		Slots:         make([]SlotState, len(r.servers)),
		Clock:         r.clock,
		PeakPowerW:    r.peakPowerW,
		MaxCPUC:       r.maxCPUC,
		MaxDIMMC:      r.maxDIMMC,
		MaxInletC:     r.maxInletC,
		LastDCW:       r.lastDCW,
		LastWallW:     r.lastWallW,
		PeakWallW:     r.peakWallW,
		DCEnergyJ:     r.dcEnergyJ,
		WallEnergyJ:   r.wallEnergyJ,
		LastCoolW:     r.lastCoolW,
		PeakFacW:      r.peakFacW,
		CoolEnergyJ:   r.coolEnergyJ,
		FacEnergyJ:    r.facEnergyJ,
		CracOut:       r.cracOut,
		ChillerDerate: r.chillerDerate,
		FaultsApplied: r.faultsApplied,
		FaultsCleared: r.faultsCleared,
		RelNext:       r.relNext,
	}
	for i, sl := range r.servers {
		st.Slots[i] = SlotState{
			Server:     sl.srv.State(),
			Load:       float64(sl.load),
			FanChanges: sl.fanChanges,
			PSUDerate:  sl.psuDerate,
		}
		if sl.ctrl != nil {
			snap, ok := sl.ctrl.(control.Snapshotter)
			if !ok {
				return State{}, fmt.Errorf("rack: slot %d controller %q does not support checkpointing", i, sl.ctrl.Name())
			}
			cs := snap.ControlState()
			st.Slots[i].Ctrl = &cs
		}
	}
	if r.relEvery > 0 {
		st.RelSamples = make([][]float64, len(r.relSamples))
		for i, xs := range r.relSamples {
			st.RelSamples[i] = xs[:len(xs):len(xs)]
		}
	}
	return st, nil
}

// Restore loads a captured State into a rack built from the same Config.
// Slot count, controller presence and reliability sampling must match the
// snapshot; mismatches error without partially mutating the rack's shape.
// The rack adopts the State's reliability traces as capacity-capped views,
// so its next sample moves each trace to an array of its own, and neither
// st nor any other State sharing its traces is ever written.
func (r *Rack) Restore(st State) error {
	if len(st.Slots) != len(r.servers) {
		return fmt.Errorf("rack: state has %d slots, rack has %d", len(st.Slots), len(r.servers))
	}
	if r.relEvery > 0 && len(st.RelSamples) != len(r.servers) {
		return fmt.Errorf("rack: state has %d reliability traces, rack samples %d slots", len(st.RelSamples), len(r.servers))
	}
	if r.relEvery <= 0 && len(st.RelSamples) > 0 {
		return fmt.Errorf("rack: state has %d reliability traces, rack does not sample reliability", len(st.RelSamples))
	}
	for i, sl := range r.servers {
		ss := st.Slots[i]
		if (sl.ctrl == nil) != (ss.Ctrl == nil) {
			return fmt.Errorf("rack: slot %d controller presence does not match snapshot", i)
		}
		if err := sl.srv.SetState(ss.Server); err != nil {
			return fmt.Errorf("rack: slot %d: %w", i, err)
		}
		if sl.ctrl != nil {
			snap, ok := sl.ctrl.(control.Snapshotter)
			if !ok {
				return fmt.Errorf("rack: slot %d controller %q does not support checkpointing", i, sl.ctrl.Name())
			}
			if err := snap.SetControlState(*ss.Ctrl); err != nil {
				return fmt.Errorf("rack: slot %d: %w", i, err)
			}
		}
		sl.load = units.Percent(ss.Load)
		sl.fanChanges = ss.FanChanges
		sl.psuDerate = ss.PSUDerate
	}
	r.clock = st.Clock
	r.peakPowerW = st.PeakPowerW
	r.maxCPUC = st.MaxCPUC
	r.maxDIMMC = st.MaxDIMMC
	r.maxInletC = st.MaxInletC
	r.lastDCW = st.LastDCW
	r.lastWallW = st.LastWallW
	r.peakWallW = st.PeakWallW
	r.dcEnergyJ = st.DCEnergyJ
	r.wallEnergyJ = st.WallEnergyJ
	r.lastCoolW = st.LastCoolW
	r.peakFacW = st.PeakFacW
	r.coolEnergyJ = st.CoolEnergyJ
	r.facEnergyJ = st.FacEnergyJ
	r.cracOut = st.CracOut
	r.chillerDerate = st.ChillerDerate
	r.faultsApplied = st.FaultsApplied
	r.faultsCleared = st.FaultsCleared
	r.relNext = st.RelNext
	for i := range r.relSamples {
		xs := st.RelSamples[i]
		r.relSamples[i] = xs[:len(xs):len(xs)]
	}
	return nil
}
