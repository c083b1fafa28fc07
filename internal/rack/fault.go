package rack

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/units"
)

// Health returns the scheduler-facing state of slot i. A dark slot is
// Failed regardless of its trip latch; a powered slot whose thermal
// protection latched is Tripped; everything else is Healthy.
func (r *Rack) Health(i int) Health {
	st := r.servers[i]
	if !st.srv.Powered() {
		return Failed
	}
	if st.srv.Tripped() {
		return Tripped
	}
	return Healthy
}

// TripRisk reports whether any live slot sits inside the trip-guard band
// below its critical temperature — the zone where a natural trip could
// latch within a macro window. The event-driven trace runner pins its
// windows to single steps while this holds on a fault run, so trips (and
// the job kills they imply) are observed on the step they happen.
func (r *Rack) TripRisk() bool {
	for _, st := range r.servers {
		if st.srv.TripRisk() {
			return true
		}
	}
	return false
}

// fanCountFor returns the fan population the event should be validated
// against: the target slot's bank when the event names a valid slot, the
// first slot's otherwise (racks are homogeneous in fan count in every
// shipped configuration).
func (r *Rack) fanCountFor(ev fault.Event) int {
	if ev.Server >= 0 && ev.Server < len(r.servers) {
		return r.servers[ev.Server].srv.Fans().NumFans()
	}
	return r.servers[0].srv.Fans().NumFans()
}

// targets visits every slot an event touches: the named server, or all of
// them for rack-scope kinds and the rack-wide ambient excursion.
func (r *Rack) targets(ev fault.Event, visit func(st *serverState)) {
	if ev.Kind.RackScope() || (ev.Kind == fault.AmbientExcursion && ev.Server < 0) {
		for _, st := range r.servers {
			visit(st)
		}
		return
	}
	visit(r.servers[ev.Server])
}

// ApplyFault injects one fault event into the rack, immediately. The trace
// runner calls it serially at the event's pinned grid step, before any
// placement decision of that step; tests and custom drivers may call it
// directly between steps (never concurrently with Step/Advance). The
// event's effect is one more constant input until its next edge, so the
// affected servers keep macro-stepping through a windowed fault (see
// server.MacroWindow). A PSUDroop or ChillerDegraded edge that would take
// the slot's (or the rack's) summed derate to 1 or more errors and
// changes nothing.
func (r *Rack) ApplyFault(ev fault.Event) error {
	if err := ev.Validate(len(r.servers), r.fanCountFor(ev)); err != nil {
		return err
	}
	switch ev.Kind {
	case fault.FanStick:
		if err := r.servers[ev.Server].srv.Fans().StickFan(ev.Fan); err != nil {
			return err
		}
	case fault.FanFail:
		if err := r.servers[ev.Server].srv.Fans().FailFan(ev.Fan); err != nil {
			return err
		}
	case fault.PSUDroop:
		st := r.servers[ev.Server]
		d := st.psuDerate + ev.Magnitude()
		if d >= 1 {
			return fmt.Errorf("rack: %s would stack server %d's PSU derates to %g; they must sum below 1", ev, ev.Server, d)
		}
		st.psuDerate = d
	case fault.PSUFail:
		r.servers[ev.Server].srv.SetPowered(false)
	case fault.ServerTrip:
		r.servers[ev.Server].srv.ForceTrip()
	case fault.AmbientExcursion:
		d := units.Celsius(ev.Magnitude())
		r.targets(ev, func(st *serverState) {
			st.srv.SetAmbientOffset(st.srv.AmbientOffset() + d)
		})
	case fault.CRACOutage:
		r.cracOut++
		d := units.Celsius(ev.Magnitude())
		r.targets(ev, func(st *serverState) {
			st.srv.SetAmbientOffset(st.srv.AmbientOffset() + d)
		})
	case fault.ChillerDegraded:
		d := r.chillerDerate + ev.Magnitude()
		if d >= 1 {
			return fmt.Errorf("rack: %s would stack the chiller derates to %g; they must sum below 1", ev, d)
		}
		r.chillerDerate = d
	default:
		return fmt.Errorf("rack: unknown fault kind %v", ev.Kind)
	}
	r.faultsApplied++
	return nil
}

// ClearFault undoes ApplyFault for the same event — the clear leg of a
// windowed fault. Clearing an event that was never applied corrupts the
// composed fault state; the trace runner only ever pairs them.
func (r *Rack) ClearFault(ev fault.Event) error {
	if err := ev.Validate(len(r.servers), r.fanCountFor(ev)); err != nil {
		return err
	}
	switch ev.Kind {
	case fault.FanStick, fault.FanFail:
		if err := r.servers[ev.Server].srv.Fans().UnstickFan(ev.Fan); err != nil {
			return err
		}
	case fault.PSUDroop:
		r.servers[ev.Server].psuDerate -= ev.Magnitude()
	case fault.PSUFail:
		r.servers[ev.Server].srv.SetPowered(true)
	case fault.ServerTrip:
		r.servers[ev.Server].srv.ResetTrip()
	case fault.AmbientExcursion:
		d := units.Celsius(ev.Magnitude())
		r.targets(ev, func(st *serverState) {
			st.srv.SetAmbientOffset(st.srv.AmbientOffset() - d)
		})
	case fault.CRACOutage:
		r.cracOut--
		d := units.Celsius(ev.Magnitude())
		r.targets(ev, func(st *serverState) {
			st.srv.SetAmbientOffset(st.srv.AmbientOffset() - d)
		})
	case fault.ChillerDegraded:
		r.chillerDerate -= ev.Magnitude()
	default:
		return fmt.Errorf("rack: unknown fault kind %v", ev.Kind)
	}
	r.faultsCleared++
	return nil
}
