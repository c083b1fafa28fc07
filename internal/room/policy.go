package room

import (
	"fmt"

	"repro/internal/lut"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/units"
)

// RackView is the room dispatcher's snapshot of one rack at a placement
// instant: the aggregates a rack chooser ranks on, plus the full per-slot
// views so cost-model choosers can price the best slot without a second
// telemetry pass (the slot views are the exact slice handed to the
// winning rack's sched.Policy afterwards).
type RackView struct {
	Index   int
	Name    string
	Servers int
	Healthy int // slots currently in rotation (rack.Healthy)

	Load    units.Percent // Σ slot loads (can exceed 100 on a multi-server rack)
	Free    units.Percent // Σ free capacity over healthy slots
	MaxFree units.Percent // largest single healthy slot's free capacity

	MaxInletC   units.Celsius // hottest inlet on the rack
	MaxCPUTempC units.Celsius // hottest die on the rack
	WallPowerW  float64       // rack's instantaneous wall draw

	// RecircOffsetC is the recirculation inlet offset currently applied to
	// this rack; RecircRowSum is Σ_j W[i][j] — the fraction of heat placed
	// here that lands back on cold aisles. Both zero in an uncoupled room.
	RecircOffsetC float64
	RecircRowSum  float64

	// Blocked marks a rack whose slot policy already refused this job in
	// the current placement attempt; choosers must skip blocked racks (the
	// runner masks and retries the chooser until it refuses outright).
	Blocked bool

	Slots []sched.ServerView
}

// RackChooser decides which rack a job goes to; the rack's own
// sched.Policy then picks the slot. Choose returns a rack index or -1 to
// leave the job queued. Implementations must be deterministic (ties to the
// lowest index), must skip Blocked racks, and must not mutate internal
// state in Choose — a chooser with placement-dependent state (the
// round-robin cursor) implements RackCommitter and mutates only there, so
// a slot-policy refusal after a Choose never desynchronizes it.
type RackChooser interface {
	Name() string
	Reset()
	Choose(j sched.Job, racks []RackView) int
}

// RackCommitter is the optional RackChooser extension the runner notifies
// after a successful placement on the chosen rack — the only point a
// chooser may mutate state (see RackChooser).
type RackCommitter interface {
	Committed(rackIdx int)
}

// Policy is the two-level room placement policy: a RackChooser picks the
// rack, then that rack's sched.Policy (Slots[rack]) picks the slot. Each
// rack needs its own slot-policy instance — stateful policies (round-robin
// cursors) must not be shared across racks.
type Policy struct {
	Chooser RackChooser
	Slots   []sched.Policy
}

// NewPolicy builds a room placement policy, one slot policy per rack.
func NewPolicy(chooser RackChooser, slots []sched.Policy) (*Policy, error) {
	if chooser == nil {
		return nil, fmt.Errorf("room: policy needs a rack chooser")
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("room: policy needs one slot policy per rack")
	}
	for i, sp := range slots {
		if sp == nil {
			return nil, fmt.Errorf("room: slot policy %d is nil", i)
		}
	}
	return &Policy{Chooser: chooser, Slots: slots}, nil
}

// reset clears the chooser and every distinct slot policy for a fresh run.
func (p *Policy) reset() {
	p.Chooser.Reset()
	for _, sp := range p.Slots {
		sp.Reset()
	}
}

// loadOnly reports whether the whole two-level refusal is provably
// load-only: the runner's masking loop retries the chooser until it
// refuses outright, so an overall refusal means every fitting rack's slot
// policy refused — load-only iff the chooser's own refusal (no rack fits
// by load/health) and every slot policy's refusal are.
func (p *Policy) loadOnly() bool {
	if lr, ok := p.Chooser.(sched.LoadOnlyRefuser); !ok || !lr.RefusalIsLoadOnly() {
		return false
	}
	for _, sp := range p.Slots {
		if !sched.RefusalIsLoadOnly(sp) {
			return false
		}
	}
	return true
}

// rackFits reports whether rack v could take the job at all: not already
// refused this attempt, with at least one healthy slot whose free capacity
// covers the demand — the load/health-only feasibility every shipped
// chooser filters on.
func rackFits(v RackView, j sched.Job) bool {
	return !v.Blocked && v.Healthy > 0 && v.MaxFree >= j.Demand
}

// slotFits mirrors the sched policies' candidate predicate for pricing
// slots inside a rack view.
func slotFits(v sched.ServerView, j sched.Job) bool {
	return v.Health == rack.Healthy && v.Free >= j.Demand
}

// ---------------------------------------------------------------------------
// Round-robin over racks

// RoundRobinRacks rotates placements across racks regardless of their
// thermal state — the room-scope blind baseline.
type RoundRobinRacks struct{ next int }

// NewRoundRobinRacks returns the rotating rack chooser.
func NewRoundRobinRacks() *RoundRobinRacks { return &RoundRobinRacks{} }

// Name implements RackChooser.
func (p *RoundRobinRacks) Name() string { return "rr-racks" }

// Reset implements RackChooser.
func (p *RoundRobinRacks) Reset() { p.next = 0 }

// RefusalIsLoadOnly implements sched.LoadOnlyRefuser: the rotation reads
// only rackFits (load + health), and refusal mutates nothing — the cursor
// moves only in Committed.
func (p *RoundRobinRacks) RefusalIsLoadOnly() bool { return true }

// Choose implements RackChooser: the first fitting rack at or after the
// cursor.
func (p *RoundRobinRacks) Choose(j sched.Job, racks []RackView) int {
	n := len(racks)
	for k := 0; k < n; k++ {
		v := racks[(p.next+k)%n]
		if rackFits(v, j) {
			return v.Index
		}
	}
	return -1
}

// Committed implements RackCommitter: advance the cursor past the rack
// that took the job.
func (p *RoundRobinRacks) Committed(rackIdx int) { p.next = rackIdx + 1 }

// ---------------------------------------------------------------------------
// Least-loaded rack

// LeastLoadedRack sends each job to the rack with the lowest summed load —
// room-scope load balancing, still thermally blind.
type LeastLoadedRack struct{}

// NewLeastLoadedRack returns the load-balancing rack chooser.
func NewLeastLoadedRack() *LeastLoadedRack { return &LeastLoadedRack{} }

// Name implements RackChooser.
func (p *LeastLoadedRack) Name() string { return "least-loaded" }

// Reset implements RackChooser.
func (p *LeastLoadedRack) Reset() {}

// RefusalIsLoadOnly implements sched.LoadOnlyRefuser: both the refusal and
// the choice read only loads and health, and the chooser is stateless.
func (p *LeastLoadedRack) RefusalIsLoadOnly() bool { return true }

// Choose implements RackChooser.
func (p *LeastLoadedRack) Choose(j sched.Job, racks []RackView) int {
	best := -1
	var bestLoad units.Percent
	for _, v := range racks {
		if !rackFits(v, j) {
			continue
		}
		if best < 0 || v.Load < bestLoad {
			best = v.Index
			bestLoad = v.Load
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Coolest rack

// CoolestRack sends each job to the fitting rack with the lowest hottest
// inlet — the reactive thermal heuristic one level up: recirculation
// offsets raise inlets, so it naturally steers load away from racks
// sitting in other racks' exhaust.
type CoolestRack struct{}

// NewCoolestRack returns the reactive thermal rack chooser.
func NewCoolestRack() *CoolestRack { return &CoolestRack{} }

// Name implements RackChooser.
func (p *CoolestRack) Name() string { return "coolest-rack" }

// Reset implements RackChooser.
func (p *CoolestRack) Reset() {}

// Choose implements RackChooser.
func (p *CoolestRack) Choose(j sched.Job, racks []RackView) int {
	best := -1
	var bestInlet units.Celsius
	for _, v := range racks {
		if !rackFits(v, j) {
			continue
		}
		if best < 0 || v.MaxInletC < bestInlet {
			best = v.Index
			bestInlet = v.MaxInletC
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Marginal-cost rack (leakage-aware, one level up)

// MinCostRack prices each fitting rack at the cheapest predicted steady
// fan+leakage marginal any of its slots offers for this job — the same
// per-slot LUTs the leakage-aware slot policy ranks on — and picks the
// cheapest rack. Pairing it with a leakage-aware slot policy makes both
// levels optimize the same cost.
type MinCostRack struct {
	tables [][]*lut.Table // per rack, per slot
}

// NewMinCostRack builds the chooser over already-built per-rack, per-slot
// cost tables (rack r slot i uses tables[r][i]).
func NewMinCostRack(tables [][]*lut.Table) (*MinCostRack, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("room: min-cost chooser needs per-rack tables")
	}
	for r, ts := range tables {
		if len(ts) == 0 {
			return nil, fmt.Errorf("room: min-cost chooser has no tables for rack %d", r)
		}
	}
	return &MinCostRack{tables: tables}, nil
}

// Name implements RackChooser.
func (p *MinCostRack) Name() string { return "min-cost" }

// Reset implements RackChooser.
func (p *MinCostRack) Reset() {}

// minSlotCost returns the cheapest steady fan+leak marginal of placing j
// on any fitting slot of rack view v, using the per-slot tables ts. The
// second return is false when no slot is feasible and priceable.
func minSlotCost(ts []*lut.Table, v RackView, j sched.Job) (units.Watts, bool) {
	best, ok := units.Watts(0), false
	for _, sv := range v.Slots {
		if !slotFits(sv, j) || sv.Index >= len(ts) || ts[sv.Index] == nil {
			continue
		}
		cost, err := sched.SteadyFanLeakMarginal(ts[sv.Index], sv.Load, j.Demand)
		if err != nil {
			continue
		}
		if !ok || cost < best {
			best, ok = cost, true
		}
	}
	return best, ok
}

// Choose implements RackChooser: the fitting rack with the cheapest best
// slot, ties to the lowest index.
func (p *MinCostRack) Choose(j sched.Job, racks []RackView) int {
	best := -1
	var bestCost units.Watts
	for _, v := range racks {
		if !rackFits(v, j) || v.Index >= len(p.tables) {
			continue
		}
		cost, ok := minSlotCost(p.tables[v.Index], v, j)
		if !ok {
			continue
		}
		if best < 0 || cost < bestCost {
			best = v.Index
			bestCost = cost
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Recirculation-aware rack

// DefaultRecircOffsetWPerC is the default penalty RecircAware charges per
// °C of recirculation offset already applied to a rack's inlets — the
// fan+leakage cost of one extra inlet degree on a mid-size rack, in Watts.
const DefaultRecircOffsetWPerC = 2.0

// RecircAware is the room-scope marginal-cost chooser that prices the
// recirculation matrix in: the best-slot steady fan+leak marginal is
// amplified by (1 + row sum) — heat placed on a rack whose exhaust feeds
// other cold aisles is paid again downstream — plus a penalty per °C of
// recirculation offset the rack is already suffering (placing more load
// there raises already-contaminated inlets further).
type RecircAware struct {
	tables  [][]*lut.Table
	offsetW float64 // Watts charged per °C of applied recirc offset
}

// NewRecircAware builds the recirculation-aware chooser over per-rack,
// per-slot cost tables. offsetWPerC ≤ 0 picks DefaultRecircOffsetWPerC.
func NewRecircAware(tables [][]*lut.Table, offsetWPerC float64) (*RecircAware, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("room: recirc-aware chooser needs per-rack tables")
	}
	for r, ts := range tables {
		if len(ts) == 0 {
			return nil, fmt.Errorf("room: recirc-aware chooser has no tables for rack %d", r)
		}
	}
	if offsetWPerC <= 0 {
		offsetWPerC = DefaultRecircOffsetWPerC
	}
	return &RecircAware{tables: tables, offsetW: offsetWPerC}, nil
}

// Name implements RackChooser.
func (p *RecircAware) Name() string { return "recirc-aware" }

// Reset implements RackChooser.
func (p *RecircAware) Reset() {}

// Choose implements RackChooser: the fitting rack with the lowest
// recirculation-amplified marginal cost, ties to the lowest index.
func (p *RecircAware) Choose(j sched.Job, racks []RackView) int {
	best := -1
	var bestCost float64
	for _, v := range racks {
		if !rackFits(v, j) || v.Index >= len(p.tables) {
			continue
		}
		slot, ok := minSlotCost(p.tables[v.Index], v, j)
		if !ok {
			continue
		}
		cost := (1+v.RecircRowSum)*float64(slot) + p.offsetW*v.RecircOffsetC
		if best < 0 || cost < bestCost {
			best = v.Index
			bestCost = cost
		}
	}
	return best
}
