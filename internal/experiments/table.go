package experiments

import (
	"fmt"
	"io"

	"repro/internal/plot"
	"repro/internal/rack"
	"repro/internal/room"
	"repro/internal/sched"
)

// Row is one cell of a scenario: a policy under one wall cap, supply
// setpoint and fault scenario. A rack cell fills Sched, Rack and
// HealthyAtEnd; a room cell fills RoomSched and Room.
type Row struct {
	Policy    string
	CapW      float64 // enforced wall budget; 0 = uncapped
	SetpointC float64 // cold-aisle supply; 0 without a facility
	Fault     string  // fault scenario; "" without the fault axis

	Sched sched.Result
	Rack  rack.Telemetry
	// HealthyAtEnd counts the rack's servers still placeable when the
	// horizon closed.
	HealthyAtEnd int

	RoomSched room.Result
	Room      room.Telemetry
}

// TotalWh returns a rack cell's DC energy in watt-hours over the measured
// window.
func (r Row) TotalWh() float64 { return r.Rack.TotalEnergyKWh * 1000 }

// FanWh returns a rack cell's fan-only energy in watt-hours.
func (r Row) FanWh() float64 { return r.Rack.FanEnergyKWh * 1000 }

// WallWh returns a rack cell's AC energy drawn at the utility feed in
// watt-hours.
func (r Row) WallWh() float64 { return r.Rack.WallEnergyKWh * 1000 }

// LossWh returns a rack cell's PSU+PDU conversion losses in watt-hours.
func (r Row) LossWh() float64 { return r.Rack.LossEnergyKWh * 1000 }

// CoolingWh returns a rack cell's CRAC+chiller energy in watt-hours.
func (r Row) CoolingWh() float64 { return r.Rack.CoolingEnergyKWh * 1000 }

// FacilityWh returns a rack cell's facility energy (wall + cooling) in
// watt-hours — the number the setpoint sweep minimizes.
func (r Row) FacilityWh() float64 { return r.Rack.FacilityEnergyKWh * 1000 }

// FacilitySweetSpot returns, for the given policy, the setpoint with the
// lowest total facility energy among the rows.
func FacilitySweetSpot(rows []Row, policy string) (setpointC, facilityWh float64, err error) {
	found := false
	for _, r := range rows {
		if r.Policy != policy {
			continue
		}
		if !found || r.FacilityWh() < facilityWh {
			setpointC, facilityWh = r.SetpointC, r.FacilityWh()
			found = true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("experiments: policy %q has no facility rows", policy)
	}
	return setpointC, facilityWh, nil
}

// Column is one table column: its header and how a row fills it.
type Column struct {
	Header string
	Cell   func(Row) string
}

// FormatTable renders the rows under the given columns.
func FormatTable(w io.Writer, rows []Row, cols []Column) error {
	headers := make([]string, len(cols))
	for j, c := range cols {
		headers[j] = c.Header
	}
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = make([]string, len(cols))
		for j, c := range cols {
			cells[i][j] = c.Cell(r)
		}
	}
	return plot.Table(w, headers, cells)
}

// cellf formats one cell value.
func cellf(format string, a ...any) string { return fmt.Sprintf(format, a...) }

// RackColumns is the DC-side table of a rack: energy, peak draw, thermal
// maxima, fan activity and queueing per policy.
func RackColumns() []Column {
	return []Column{
		{"Policy", func(r Row) string { return r.Policy }},
		{"Total(Wh)", func(r Row) string { return cellf("%.2f", r.TotalWh()) }},
		{"Fan(Wh)", func(r Row) string { return cellf("%.2f", r.FanWh()) }},
		{"Peak(W)", func(r Row) string { return cellf("%.0f", r.Rack.PeakPowerW) }},
		{"MaxCPU(°C)", func(r Row) string { return cellf("%.1f", r.Rack.MaxCPUTempC) }},
		{"MaxDIMM(°C)", func(r Row) string { return cellf("%.1f", r.Rack.MaxDIMMTempC) }},
		{"MaxInlet(°C)", func(r Row) string { return cellf("%.1f", r.Rack.MaxInletC) }},
		{"#fan", func(r Row) string { return cellf("%d", r.Rack.FanChanges) }},
		{"Placed", func(r Row) string { return cellf("%d/%d", r.Sched.Placed, r.Sched.Submitted) }},
		{"Done", func(r Row) string { return cellf("%d", r.Sched.Completed) }},
		{"Wait(s)", func(r Row) string { return cellf("%.1f", r.Sched.MeanWaitSec) }},
		{"MaxQ", func(r Row) string { return cellf("%d", r.Sched.MaxQueueLen) }},
	}
}

// ACColumns is the wall-side table of a rack: DC vs wall energy,
// conversion losses, peak draws and cap behaviour per policy and cap.
func ACColumns() []Column {
	return []Column{
		{"Policy", func(r Row) string { return r.Policy }},
		{"Cap(W)", func(r Row) string {
			if r.CapW > 0 {
				return cellf("%.0f", r.CapW)
			}
			return "-"
		}},
		{"Wh(DC)", func(r Row) string { return cellf("%.2f", r.TotalWh()) }},
		{"Wh(AC)", func(r Row) string { return cellf("%.2f", r.WallWh()) }},
		{"Loss(Wh)", func(r Row) string { return cellf("%.2f", r.LossWh()) }},
		{"PeakDC(W)", func(r Row) string { return cellf("%.0f", r.Rack.PeakPowerW) }},
		{"PeakWall(W)", func(r Row) string { return cellf("%.0f", r.Rack.PeakWallPowerW) }},
		{"Defer", func(r Row) string { return cellf("%d", r.Sched.Deferrals) }},
		{"Placed", func(r Row) string { return cellf("%d/%d", r.Sched.Placed, r.Sched.Submitted) }},
		{"Done", func(r Row) string { return cellf("%d", r.Sched.Completed) }},
		{"Wait(s)", func(r Row) string { return cellf("%.1f", r.Sched.MeanWaitSec) }},
	}
}

// FacilityColumns is the policy × setpoint table: wall energy, the cooling
// bill on top of it, the facility total, PUE and the thermal and
// scheduling context per cell.
func FacilityColumns() []Column {
	return []Column{
		{"Supply(°C)", func(r Row) string { return cellf("%.0f", r.SetpointC) }},
		{"Policy", func(r Row) string { return r.Policy }},
		{"Wh(AC)", func(r Row) string { return cellf("%.2f", r.WallWh()) }},
		{"Cool(Wh)", func(r Row) string { return cellf("%.2f", r.CoolingWh()) }},
		{"Facility(Wh)", func(r Row) string { return cellf("%.2f", r.FacilityWh()) }},
		{"PUE", func(r Row) string { return cellf("%.4f", r.Rack.PUE) }},
		{"MaxCPU(°C)", func(r Row) string { return cellf("%.1f", r.Rack.MaxCPUTempC) }},
		{"#fan", func(r Row) string { return cellf("%d", r.Rack.FanChanges) }},
		{"Defer", func(r Row) string { return cellf("%d", r.Sched.Deferrals) }},
		{"Placed", func(r Row) string { return cellf("%d/%d", r.Sched.Placed, r.Sched.Submitted) }},
		{"Wait(s)", func(r Row) string { return cellf("%.1f", r.Sched.MeanWaitSec) }},
	}
}

// FaultColumns is the scenario × policy degradation table: the energy
// bill, the disruption (requeues, losses, destroyed job-seconds), the
// thermal peak, the reliability roll-up and the surviving capacity.
func FaultColumns() []Column {
	return []Column{
		{"Scenario", func(r Row) string { return r.Fault }},
		{"Policy", func(r Row) string { return r.Policy }},
		{"Wh(DC)", func(r Row) string { return cellf("%.2f", r.TotalWh()) }},
		{"MaxCPU(°C)", func(r Row) string { return cellf("%.1f", r.Rack.MaxCPUTempC) }},
		{"Req", func(r Row) string { return cellf("%d", r.Sched.Requeued) }},
		{"Lost", func(r Row) string { return cellf("%d", r.Sched.Lost) }},
		{"LostJob(s)", func(r Row) string { return cellf("%.0f", r.Sched.LostJobSeconds) }},
		{"Done", func(r Row) string { return cellf("%d/%d", r.Sched.Completed, r.Sched.Submitted) }},
		{"Wait(s)", func(r Row) string { return cellf("%.1f", r.Sched.MeanWaitSec) }},
		{"Accel", func(r Row) string { return cellf("%.2f", r.Rack.WorstAccel) }},
		{"Above75", func(r Row) string { return cellf("%.1f%%", 100*r.Rack.WorstAbove75) }},
		{"Surv", func(r Row) string { return cellf("%d/%d", r.HealthyAtEnd, r.Rack.Servers) }},
	}
}

// RoomColumns is the room table: wall energy, the shared bank's cooling
// bill, the facility total, PUE, the recirculation high-water and the
// thermal and scheduling context per two-level policy.
func RoomColumns() []Column {
	return []Column{
		{"Policy", func(r Row) string { return r.Policy }},
		{"Wh(AC)", func(r Row) string { return cellf("%.2f", r.Room.WallEnergyKWh*1000) }},
		{"Cool(Wh)", func(r Row) string { return cellf("%.2f", r.Room.CoolingEnergyKWh*1000) }},
		{"Facility(Wh)", func(r Row) string { return cellf("%.2f", r.Room.FacilityEnergyKWh*1000) }},
		{"PUE", func(r Row) string { return cellf("%.4f", r.Room.PUE) }},
		{"PeakFac(W)", func(r Row) string { return cellf("%.0f", r.Room.PeakFacilityPowerW) }},
		{"MaxInlet(°C)", func(r Row) string { return cellf("%.1f", r.Room.MaxInletC) }},
		{"Recirc(°C)", func(r Row) string { return cellf("%.2f", r.Room.MaxRecircOffsetC) }},
		{"Placed", func(r Row) string { return cellf("%d/%d", r.RoomSched.Placed, r.RoomSched.Submitted) }},
		{"Done", func(r Row) string { return cellf("%d", r.RoomSched.Completed) }},
		{"Wait(s)", func(r Row) string { return cellf("%.1f", r.RoomSched.MeanWaitSec) }},
		{"MaxQ", func(r Row) string { return cellf("%d", r.RoomSched.MaxQueueLen) }},
	}
}
