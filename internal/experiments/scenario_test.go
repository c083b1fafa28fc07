package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestScenarioPresetsDeterministicAcrossWorkers is the golden-table
// contract for every preset: the serial reference and a parallel worker
// count must produce structurally identical rows, a byte-identical
// rendered table and byte-identical metrics dumps. Under -race this
// exercises the concurrent cells (the rack-step fan-out itself is raced
// in internal/rack, the room's in internal/room).
func TestScenarioPresetsDeterministicAcrossWorkers(t *testing.T) {
	base := server.T3Config()
	for _, tc := range []struct {
		name  string
		sc    Scenario
		cols  []Column
		want  []string // strings the rendered table must contain
		rows  int
		check func(t *testing.T, rows []Row)
	}{
		{name: "rack", sc: smallRackEval(), cols: RackColumns(), rows: 5,
			want: []string{"Policy", "Total(Wh)", "round-robin", "leakage-aware"}},
		{name: "ac", sc: acEval(0), cols: ACColumns(), rows: 10,
			want: []string{"Wh(AC)", "Loss(Wh)", "PeakWall(W)", "cap-aware", "Defer"}},
		// 6 policies × 2 setpoints.
		{name: "facility", sc: smallFacilityEval(), cols: FacilityColumns(), rows: 12,
			want: []string{"Supply(°C)", "Facility(Wh)", "PUE", "pue-aware", "round-robin"}},
		{name: "faults", sc: smallFaultEval(), cols: FaultColumns(), rows: 18,
			want: []string{"Scenario", "Surv", "Req", "cascade", "pue-aware"}},
		{name: "room", sc: smallRoomEval(), cols: RoomColumns(), rows: 6,
			want:  []string{"Facility(Wh)", "PUE", "Recirc(°C)", "rr", "recirc-aware", "recirc-pue"},
			check: checkRoomRows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) ([]Row, string, string) {
				sc := tc.sc
				sc.Workers = workers
				sc.Metrics = obs.NewRegistry()
				rows, err := RunScenario(base, sc)
				if err != nil {
					t.Fatal(err)
				}
				// Registry pointers differ by construction; rows must not.
				for i := range rows {
					rows[i].Sched.Metrics, rows[i].RoomSched.Metrics = nil, nil
				}
				var table, dump bytes.Buffer
				if err := FormatTable(&table, rows, tc.cols); err != nil {
					t.Fatal(err)
				}
				if err := sc.Metrics.WriteText(&dump); err != nil {
					t.Fatal(err)
				}
				return rows, table.String(), dump.String()
			}
			serial, stable, sdump := run(1)
			parallel, ptable, pdump := run(8)
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("parallel rows differ from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
			if stable != ptable {
				t.Fatalf("rendered tables differ:\nserial:\n%s\nparallel:\n%s", stable, ptable)
			}
			if sdump == "" || sdump != pdump {
				t.Fatalf("metrics dumps differ:\nserial:\n%s\nparallel:\n%s", sdump, pdump)
			}
			for _, col := range tc.want {
				if !strings.Contains(stable, col) {
					t.Fatalf("table missing %q:\n%s", col, stable)
				}
			}
			if len(serial) != tc.rows {
				t.Fatalf("got %d rows, want %d", len(serial), tc.rows)
			}
			if tc.check != nil {
				tc.check(t, serial)
			}
		})
	}
}

// checkRoomRows checks the room preset's rows: the six two-level combos in
// table order, each a non-degenerate run that pays the shared bank and
// sees recirculation, on the configured room shape.
func checkRoomRows(t *testing.T, rows []Row) {
	for i, label := range []string{"rr", "least-loaded", "coolest", "min-cost", "recirc-aware", "recirc-pue"} {
		r := rows[i]
		if r.Policy != label {
			t.Errorf("row %d is %q, want %q (table order)", i, r.Policy, label)
		}
		if r.RoomSched.Placed == 0 || r.Room.WallEnergyKWh <= 0 {
			t.Errorf("%s: degenerate run %+v", label, r.RoomSched)
		}
		if r.Room.CoolingEnergyKWh <= 0 || r.Room.PUE <= 1 {
			t.Errorf("%s: shared bank should cost energy: PUE %g", label, r.Room.PUE)
		}
		if r.Room.MaxRecircOffsetC <= 0 {
			t.Errorf("%s: coupled room should see recirculation offsets", label)
		}
		if r.Room.Racks != 3 || r.Room.Servers != 6 {
			t.Errorf("%s: wrong room shape %d×%d", label, r.Room.Racks, r.Room.Servers)
		}
	}
}

// TestBackfillReachesEveryRackPreset: every rack cell takes its trace
// configuration from one place, so Backfill reaches the facility and
// fault presets too. Saturated, every cell places jobs past a blocked
// head.
func TestBackfillReachesEveryRackPreset(t *testing.T) {
	for name, sc := range map[string]Scenario{"facility": smallFacilityEval(), "faults": smallFaultEval()} {
		sc.Rate = 0.2
		sc.Backfill = true
		rows, err := RunScenario(server.T3Config(), sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Sched.Backfills == 0 {
				t.Errorf("%s: %s (setpoint %g, faults %q) backfilled nothing", name, r.Policy, r.SetpointC, r.Fault)
			}
		}
	}
}
