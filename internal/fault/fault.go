package fault

import (
	"fmt"
	"math"
)

// Kind enumerates the fault taxonomy.
type Kind int

const (
	// FanStick freezes fan Fan of server Server at its current speed;
	// controller commands are ignored until the event clears.
	FanStick Kind = iota
	// FanFail spins fan Fan of server Server down to zero and latches it
	// there — an outright failure: no airflow, no fan power. Clearing lets
	// the fan slew back to its commanded target.
	FanFail
	// PSUDroop degrades server Server's supply efficiency: the AC input
	// drawn for a given DC load is inflated by 1/(1−Severity). Severity
	// must lie in (0, 1); zero selects DefaultPSUDroop. Overlapping droops
	// on one server add up, and their sum must stay below 1.
	PSUDroop
	// PSUFail takes server Server dark: the slot draws nothing at the wall,
	// injects no heat, its fans spin down and its health reports Failed —
	// the scheduler must kill and requeue (or drop) its jobs. Clearing
	// restores power; the machine rejoins the rack from its cooled state.
	PSUFail
	// ServerTrip forces server Server's thermal protection: the trip
	// latches (sticky for the run), fans are driven to maximum, and health
	// reports Tripped. Clearing is the operator's explicit trip reset.
	ServerTrip
	// AmbientExcursion shifts the inlet ambient of server Server (or of
	// every server when Server < 0) by Severity °C for the event's window.
	AmbientExcursion
	// CRACOutage is the facility-scope heat soak: every server's ambient
	// rises by Severity °C (zero selects DefaultCRACOutageC) and the
	// CRAC/chiller cooling power is zero while the outage lasts — the room
	// unit is dark, so no energy is spent removing the heat that is now
	// soaking the aisles.
	CRACOutage
	// ChillerDegraded derates the chiller: cooling power is inflated by
	// 1/(1−Severity) — the COP chain delivering the same heat removal at
	// degraded efficiency. Severity must lie in (0, 1); zero selects
	// DefaultPSUDroop. Overlapping derates add up, and their sum must stay
	// below 1.
	ChillerDegraded
)

// DefaultPSUDroop is the efficiency derate a PSUDroop or ChillerDegraded
// event with zero Severity applies.
const DefaultPSUDroop = 0.05

// DefaultCRACOutageC is the aisle heat-soak a CRACOutage event with zero
// Severity applies, in °C.
const DefaultCRACOutageC = 8

// kindNames also fixes the taxonomy's table-rendering order.
var kindNames = map[Kind]string{
	FanStick:         "fan-stick",
	FanFail:          "fan-fail",
	PSUDroop:         "psu-droop",
	PSUFail:          "psu-fail",
	ServerTrip:       "server-trip",
	AmbientExcursion: "ambient-excursion",
	CRACOutage:       "crac-outage",
	ChillerDegraded:  "chiller-degraded",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// RackScope reports whether the kind targets the whole rack rather than one
// server (Event.Server is ignored for rack-scope kinds except
// AmbientExcursion, where Server < 0 selects rack scope).
func (k Kind) RackScope() bool { return k == CRACOutage || k == ChillerDegraded }

// Event is one scheduled fault: injected at At and, when Clear > At,
// cleared again at Clear. Times are seconds relative to the start of the
// trace window the schedule is attached to; the trace runner pins both to
// the first grid step at or after them. Clear ≤ 0 means the fault is
// permanent for the run.
type Event struct {
	Kind   Kind
	Server int     // target slot; -1 with AmbientExcursion = every server
	Fan    int     // target fan for FanStick/FanFail
	At     float64 // inject time, seconds from trace start
	Clear  float64 // optional clear time; ≤ 0 = never
	// Severity is the kind-specific magnitude: the efficiency derate in
	// (0,1) for PSUDroop/ChillerDegraded, the ambient shift in °C for
	// AmbientExcursion/CRACOutage. Ignored by the other kinds. Zero picks
	// the kind's documented default.
	Severity float64
}

// Windowed reports whether the event carries a clear time: a bounded
// fault window that repairs itself.
func (e Event) Windowed() bool { return e.Clear > e.At }

// Validate reports structural errors against a rack of nServers servers
// with nFans fans each.
func (e Event) Validate(nServers, nFans int) error {
	if _, ok := kindNames[e.Kind]; !ok {
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	for _, v := range []float64{e.At, e.Clear, e.Severity} {
		// NaN and ±Inf would pass every ordered comparison below and then
		// poison the grid-step pinning; reject them up front.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fault: %s: non-finite time/severity %g", e.Kind, v)
		}
	}
	if e.At < 0 {
		return fmt.Errorf("fault: %s at %g: inject time must be >= 0", e.Kind, e.At)
	}
	if e.Clear != 0 && e.Clear <= e.At {
		return fmt.Errorf("fault: %s: clear %g must follow inject %g (or be 0 = never)", e.Kind, e.Clear, e.At)
	}
	needServer := !e.Kind.RackScope() && !(e.Kind == AmbientExcursion && e.Server < 0)
	if needServer && (e.Server < 0 || e.Server >= nServers) {
		return fmt.Errorf("fault: %s: server %d out of range [0,%d)", e.Kind, e.Server, nServers)
	}
	if e.Kind == FanStick || e.Kind == FanFail {
		if e.Fan < 0 || e.Fan >= nFans {
			return fmt.Errorf("fault: %s server %d: fan %d out of range [0,%d)", e.Kind, e.Server, e.Fan, nFans)
		}
	}
	switch e.Kind {
	case PSUDroop, ChillerDegraded:
		if e.Severity < 0 || e.Severity >= 1 {
			return fmt.Errorf("fault: %s: severity %g must lie in [0,1)", e.Kind, e.Severity)
		}
	}
	return nil
}

func (e Event) String() string {
	s := e.Kind.String()
	switch {
	case e.Kind.RackScope():
	case e.Kind == AmbientExcursion && e.Server < 0:
		s += "[rack]"
	default:
		s += fmt.Sprintf("[srv%d", e.Server)
		if e.Kind == FanStick || e.Kind == FanFail {
			s += fmt.Sprintf(" fan%d", e.Fan)
		}
		s += "]"
	}
	s += fmt.Sprintf("@%gs", e.At)
	if e.Windowed() {
		s += fmt.Sprintf("..%gs", e.Clear)
	}
	return s
}

// Schedule is a deterministic fault plan: the events a run injects, in
// inject-time order. The zero value (no events) is the healthy run and is
// guaranteed not to perturb any metric.
type Schedule struct {
	Events []Event
}

// Validate checks every event against the rack shape, that the schedule
// is sorted by inject time (ties broken by declaration order are fine; a
// descending pair is rejected so plans stay readable), and that stacked
// derates stay below 1: at no instant may one server's active PSUDroop
// severities, or the active ChillerDegraded severities, sum to 1 or more,
// which would divide the AC input or the cooling power by a non-positive
// efficiency.
func (s *Schedule) Validate(nServers, nFans int) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if err := e.Validate(nServers, nFans); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
		if i > 0 && e.At < s.Events[i-1].At {
			return fmt.Errorf("fault: events must be sorted by inject time (event %d at %g after %g)", i, e.At, s.Events[i-1].At)
		}
	}
	return s.checkDerateStacks()
}

// checkDerateStacks sums the active derates at every derate inject — the
// only instants a sum can grow. An event is active from At until its
// Clear, or for the rest of the run when permanent, and at a shared
// instant clears go before injects, as the trace runners order their
// edges. The check runs in trace seconds: pinning edges to a step grid
// never reorders them, it only merges or drops them, so a schedule that
// passes here cannot stack on any grid.
func (s *Schedule) checkDerateStacks() error {
	for i, e := range s.Events {
		if e.Kind != PSUDroop && e.Kind != ChillerDegraded {
			continue
		}
		var sum float64
		for _, o := range s.Events {
			if o.Kind != e.Kind || (e.Kind == PSUDroop && o.Server != e.Server) {
				continue
			}
			if o.At <= e.At && !(o.Windowed() && o.Clear <= e.At) {
				sum += o.derate()
			}
		}
		if sum < 1 {
			continue
		}
		if e.Kind == PSUDroop {
			return fmt.Errorf("fault: event %d: %s stacks server %d's PSU derates to %g at %gs; they must sum below 1", i, e, e.Server, sum, e.At)
		}
		return fmt.Errorf("fault: event %d: %s stacks the chiller derates to %g at %gs; they must sum below 1", i, e, sum, e.At)
	}
	return nil
}

// derate resolves a PSUDroop/ChillerDegraded severity, zero picking the
// documented default.
func (e Event) derate() float64 {
	if e.Severity == 0 {
		return DefaultPSUDroop
	}
	return e.Severity
}

// Empty reports whether the schedule carries no events; a nil schedule is
// empty.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }
