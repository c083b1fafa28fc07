package fault

import (
	"sort"
	"strings"
	"testing"
)

func TestEventValidate(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		ok   bool
	}{
		{"fan ok", Event{Kind: FanStick, Server: 1, Fan: 0, At: 10}, true},
		{"fan windowed", Event{Kind: FanFail, Server: 0, Fan: 1, At: 10, Clear: 20}, true},
		{"fan index high", Event{Kind: FanStick, Server: 0, Fan: 2, At: 10}, false},
		{"fan index negative", Event{Kind: FanStick, Server: 0, Fan: -1, At: 10}, false},
		{"server high", Event{Kind: PSUFail, Server: 4, At: 10}, false},
		{"server negative", Event{Kind: ServerTrip, Server: -1, At: 10}, false},
		{"rack scope ignores server", Event{Kind: CRACOutage, Server: -1, At: 10}, true},
		{"ambient rack-wide", Event{Kind: AmbientExcursion, Server: -1, At: 5, Severity: 4}, true},
		{"ambient one server", Event{Kind: AmbientExcursion, Server: 3, At: 5, Severity: 4}, true},
		{"negative time", Event{Kind: PSUDroop, Server: 0, At: -1}, false},
		{"clear before at", Event{Kind: PSUFail, Server: 0, At: 10, Clear: 5}, false},
		{"droop too big", Event{Kind: PSUDroop, Server: 0, At: 1, Severity: 1}, false},
		{"droop negative", Event{Kind: PSUDroop, Server: 0, At: 1, Severity: -0.1}, false},
		{"chiller derate too big", Event{Kind: ChillerDegraded, At: 1, Severity: 1.5}, false},
		{"unknown kind", Event{Kind: Kind(99), At: 1}, false},
	}
	for _, c := range cases {
		err := c.ev.Validate(4, 2)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}

func TestScheduleValidateRequiresSortedAndSortFixes(t *testing.T) {
	s := Schedule{Events: []Event{
		{Kind: PSUFail, Server: 1, At: 30},
		{Kind: FanStick, Server: 0, Fan: 0, At: 10},
	}}
	if err := s.Validate(2, 1); err == nil {
		t.Fatal("unsorted schedule must be rejected")
	}
	s.Sort()
	if err := s.Validate(2, 1); err != nil {
		t.Fatalf("sorted schedule rejected: %v", err)
	}
	if s.Events[0].Kind != FanStick {
		t.Fatalf("sort order wrong: %+v", s.Events)
	}
}

func TestEmptyAndWindowed(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Fatal("nil schedule must read as empty")
	}
	if !(&Schedule{}).Empty() {
		t.Fatal("zero schedule must read as empty")
	}
	if (&Schedule{Events: []Event{{Kind: PSUFail, At: 1}}}).Empty() {
		t.Fatal("non-empty schedule read as empty")
	}
	if (Event{At: 5}).Windowed() {
		t.Fatal("permanent event read as windowed")
	}
	if !(Event{At: 5, Clear: 6}).Windowed() {
		t.Fatal("windowed event read as permanent")
	}
}

func TestStrings(t *testing.T) {
	for k := FanStick; k <= ChillerDegraded; k++ {
		if s := k.String(); s == "" || strings.Contains(s, "kind(") {
			t.Fatalf("kind %d has no name: %q", k, s)
		}
	}
	ev := Event{Kind: FanStick, Server: 2, Fan: 1, At: 10, Clear: 20}
	got := ev.String()
	for _, want := range []string{"fan-stick", "srv2", "fan1", "@10s", "..20s"} {
		if !strings.Contains(got, want) {
			t.Fatalf("event string %q missing %q", got, want)
		}
	}
}

func TestScheduleValidateRejectsStackedDerates(t *testing.T) {
	droop := func(srv int, at, clear, sev float64) Event {
		return Event{Kind: PSUDroop, Server: srv, At: at, Clear: clear, Severity: sev}
	}
	chiller := func(srv int, at, clear, sev float64) Event {
		return Event{Kind: ChillerDegraded, Server: srv, At: at, Clear: clear, Severity: sev}
	}
	cases := []struct {
		name   string
		events []Event
		ok     bool
	}{
		{"stacked droops", []Event{droop(0, 10, 60, 0.6), droop(0, 30, 90, 0.5)}, false},
		{"stacked droops at one instant", []Event{droop(1, 10, 0, 0.6), droop(1, 10, 0, 0.4)}, false},
		{"droops on different servers", []Event{droop(0, 10, 60, 0.6), droop(1, 30, 90, 0.5)}, true},
		{"back-to-back windows share an instant", []Event{droop(0, 10, 30, 0.6), droop(0, 30, 90, 0.5)}, true},
		{"permanent overlaps a later window", []Event{droop(0, 10, 0, 0.6), droop(0, 500, 600, 0.5)}, false},
		{"window overlaps a later permanent", []Event{droop(0, 10, 600, 0.6), droop(0, 500, 0, 0.5)}, false},
		{"permanent starts as the window clears", []Event{droop(0, 10, 30, 0.6), droop(0, 30, 0, 0.5)}, true},
		{"zero severity counts as the default", []Event{droop(0, 10, 0, 0.96), droop(0, 20, 0, 0)}, false},
		{"zero severity below the limit", []Event{droop(0, 10, 0, 0.94), droop(0, 20, 0, 0)}, true},
		{"chiller derates ignore the server", []Event{chiller(0, 10, 0, 0.5), chiller(3, 20, 40, 0.5)}, false},
		{"chiller and droop do not stack", []Event{droop(0, 10, 0, 0.6), chiller(0, 10, 0, 0.6)}, true},
		{"three windows, only two at once", []Event{droop(2, 0, 20, 0.45), droop(2, 10, 30, 0.45), droop(2, 20, 40, 0.45)}, true},
		{"three windows all at once", []Event{droop(2, 0, 25, 0.4), droop(2, 10, 30, 0.4), droop(2, 20, 40, 0.4)}, false},
	}
	for _, c := range cases {
		s := Schedule{Events: c.events}
		err := s.Validate(4, 2)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "sum below 1")) {
			t.Errorf("%s: want a stacked-derate error, got %v", c.name, err)
		}
	}
}

// Sort orders the events by inject time (stable, so same-instant events
// keep their declaration order — the order they are applied in).
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(a, b int) bool { return s.Events[a].At < s.Events[b].At })
}
