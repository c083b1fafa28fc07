package fault

import (
	"math"
	"testing"
)

// FuzzScheduleValidate throws arbitrary two-event schedules at the
// validator and pins the invariants the trace runner depends on: Sort is
// idempotent and yields inject-time order, a schedule of individually
// valid events validates after Sort exactly when its derates do not stack
// (the sortedness rejection is only ever about order; the one other
// failure mode is two overlapping PSUDroops on one server, or two
// overlapping ChillerDegradeds, summing to 1 or more, which the oracle
// below decides on its own), every event a validated schedule carries
// satisfies the documented field contracts, and String never panics. The
// committed corpus seeds the taxonomy's corners — rack-scope kinds, the
// Server<0 ambient wildcard, windowed clears, stacked droops and the
// non-finite rejections; CI runs a short -fuzz smoke on top.
func FuzzScheduleValidate(f *testing.F) {
	f.Add(0, 0, 0, 600.0, 900.0, 0.0, 3, 1, 0, 1200.0, 0.0, 0.0)   // fan-stick window, then psu-fail forever
	f.Add(6, 0, 0, 300.0, 600.0, 0.0, 5, -1, 0, 100.0, 200.0, 4.0) // crac outage + rack-wide ambient, unsorted
	f.Add(2, 1, 0, 0.0, 0.0, 0.5, 7, 0, 0, 0.0, 0.0, 0.99)         // droop + chiller derate at t=0
	f.Add(4, 2, 0, -5.0, 0.0, 0.0, 1, 9, 9, 10.0, 5.0, 0.0)        // negative inject, bad targets, clear<at
	f.Add(99, 0, 0, 1.0, 2.0, 0.0, 0, 0, 0, 3.0, 4.0, 2.0)         // unknown kind
	f.Fuzz(func(t *testing.T, k0, srv0, fan0 int, at0, clear0, sev0 float64, k1, srv1, fan1 int, at1, clear1, sev1 float64) {
		const nServers, nFans = 4, 3
		var nilSched *Schedule
		if err := nilSched.Validate(nServers, nFans); err != nil {
			t.Fatalf("nil schedule must validate: %v", err)
		}
		s := &Schedule{Events: []Event{
			{Kind: Kind(k0), Server: srv0, Fan: fan0, At: at0, Clear: clear0, Severity: sev0},
			{Kind: Kind(k1), Server: srv1, Fan: fan1, At: at1, Clear: clear1, Severity: sev1},
		}}
		s.Sort()
		sorted := append([]Event(nil), s.Events...)
		if len(sorted) == 2 && sorted[1].At < sorted[0].At {
			t.Fatalf("Sort left events out of order: %g after %g", sorted[1].At, sorted[0].At)
		}
		// Idempotent: a second sort must not reshuffle ties. Plain struct
		// equality would declare a NaN-carrying event unequal to itself, so
		// compare fields NaN-aware.
		feq := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
		evEq := func(a, b Event) bool {
			return a.Kind == b.Kind && a.Server == b.Server && a.Fan == b.Fan &&
				feq(a.At, b.At) && feq(a.Clear, b.Clear) && feq(a.Severity, b.Severity)
		}
		s.Sort()
		if !evEq(s.Events[0], sorted[0]) || !evEq(s.Events[1], sorted[1]) {
			t.Fatal("Sort is not idempotent")
		}
		allValid := true
		for _, e := range s.Events {
			if e.Validate(nServers, nFans) != nil {
				allValid = false
			}
			_ = e.String() // must not panic, even for garbage kinds
		}
		err := s.Validate(nServers, nFans)
		stacked := allValid && derateStack(s.Events[0], s.Events[1])
		if allValid && !stacked && err != nil {
			t.Fatalf("all events valid and sorted, yet Validate failed: %v", err)
		}
		if stacked && err == nil {
			t.Fatalf("stacked derates %v and %v validated", s.Events[0], s.Events[1])
		}
		if !allValid && err == nil {
			t.Fatal("Validate accepted a schedule containing an invalid event")
		}
		if err != nil {
			return
		}
		for i, e := range s.Events {
			if math.IsNaN(e.At) || math.IsInf(e.At, 0) || e.At < 0 {
				t.Fatalf("validated event %d has bad inject time %g", i, e.At)
			}
			if e.Windowed() != (e.Clear > e.At) {
				t.Fatalf("validated event %d: Windowed()=%v but At=%g Clear=%g", i, e.Windowed(), e.At, e.Clear)
			}
			if e.Clear != 0 && !e.Windowed() {
				t.Fatalf("validated event %d carries a clear %g that never follows inject %g", i, e.Clear, e.At)
			}
		}
	})
}

// derateStack is the fuzz oracle for the stacked-derate rejection, written
// apart from the validator: two valid events stack when both are PSUDroops
// on one server or both ChillerDegradeds, their active spans [At, Clear)
// overlap (a permanent event never ends; a clear at the other's inject
// instant goes first), and their severities, zero meaning the default,
// sum to 1 or more.
func derateStack(a, b Event) bool {
	if a.Kind != b.Kind || (a.Kind != PSUDroop && a.Kind != ChillerDegraded) {
		return false
	}
	if a.Kind == PSUDroop && a.Server != b.Server {
		return false
	}
	end := func(e Event) float64 {
		if e.Clear > e.At {
			return e.Clear
		}
		return math.Inf(1)
	}
	sev := func(e Event) float64 {
		if e.Severity == 0 {
			return DefaultPSUDroop
		}
		return e.Severity
	}
	return a.At < end(b) && b.At < end(a) && sev(a)+sev(b) >= 1
}
