// Package lut builds and queries the lookup table at the heart of the
// paper's controller: for each utilization level, the fan speed that
// minimizes fan + leakage power at the predicted steady-state temperature,
// subject to the 75 °C reliability cap (Section IV: "for reliability
// purposes we target a maximum operational temperature of 75 °C").
package lut

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/units"
)

// Entry is one row of the table.
type Entry struct {
	Util          units.Percent `json:"util_pct"`
	RPM           units.RPM     `json:"rpm"`
	PredictedTemp units.Celsius `json:"predicted_temp_c"`
	FanLeakPower  units.Watts   `json:"fan_plus_leak_w"`
}

// Table maps utilization to optimal fan speed. Entries are sorted by Util.
type Table struct {
	Entries []Entry `json:"entries"`
}

// BuildConfig controls table generation.
type BuildConfig struct {
	Utils   []units.Percent // utilization grid (paper: the characterized levels)
	Levels  []units.RPM     // candidate fan speeds
	MaxTemp units.Celsius   // reliability cap; 0 disables the cap
	Workers int             // worker bound for the per-utilization solves; ≤ 0 = GOMAXPROCS
}

// DefaultBuild returns the paper's grid: characterized utilization levels
// plus 0%, the five discrete fan speeds, 75 °C cap.
func DefaultBuild() BuildConfig {
	return BuildConfig{
		Utils:   []units.Percent{0, 10, 25, 40, 50, 60, 75, 90, 100},
		Levels:  []units.RPM{1800, 2400, 3000, 3600, 4200},
		MaxTemp: 75,
	}
}

// Build generates the table from a server configuration (whose power model
// may be the ground truth or a fitted model patched in by the caller). For
// each utilization it evaluates every fan level's steady state and keeps
// the feasible minimum of fan+leakage power; active power is identical
// across levels and so drops out of the comparison.
func Build(cfg server.Config, b BuildConfig) (*Table, error) {
	if len(b.Utils) == 0 || len(b.Levels) == 0 {
		return nil, fmt.Errorf("lut: build needs utilization grid and fan levels")
	}
	levels := append([]units.RPM(nil), b.Levels...)
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	utils := append([]units.Percent(nil), b.Utils...)
	sort.Slice(utils, func(i, j int) bool { return utils[i] < utils[j] })

	// Each utilization level's scan over fan speeds is independent of the
	// others, so the levels fan out over a bounded worker pool; entries are
	// written by index, which keeps the table identical to a serial build.
	entries := make([]Entry, len(utils))
	errs := make([]error, len(utils))
	par.ForEach(len(utils), b.Workers, func(i int) {
		u := utils[i]
		best := Entry{Util: u, RPM: 0}
		found := false
		for _, r := range levels {
			temp, err := server.SteadyTemp(cfg, u, r)
			if err != nil {
				continue // thermally unstable operating point
			}
			if b.MaxTemp > 0 && temp > b.MaxTemp {
				continue // violates the reliability cap
			}
			obj := cfg.Power.Leakage.Power(temp) + cfg.Power.Fans.Power(r)
			if !found || obj < best.FanLeakPower {
				best = Entry{Util: u, RPM: r, PredictedTemp: temp, FanLeakPower: obj}
				found = true
			}
		}
		if !found {
			// No feasible level: fail safe at maximum cooling.
			r := levels[len(levels)-1]
			temp, err := server.SteadyTemp(cfg, u, r)
			if err != nil {
				errs[i] = fmt.Errorf("lut: U=%v unstable even at %v: %w", u, r, err)
				return
			}
			best = Entry{
				Util:          u,
				RPM:           r,
				PredictedTemp: temp,
				FanLeakPower:  cfg.Power.Leakage.Power(temp) + cfg.Power.Fans.Power(r),
			}
		}
		entries[i] = best
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Table{Entries: entries}, nil
}

// Lookup returns the fan speed for utilization u. The paper's controller
// addresses the LUT by utilization level; we round *up* to the next grid
// entry so a between-levels load gets at least the cooling of the level
// above it (conservative with respect to the reliability cap).
func (t *Table) Lookup(u units.Percent) (units.RPM, error) {
	if len(t.Entries) == 0 {
		return 0, fmt.Errorf("lut: empty table")
	}
	u = u.Clamp()
	for _, e := range t.Entries {
		if u <= e.Util {
			return e.RPM, nil
		}
	}
	return t.Entries[len(t.Entries)-1].RPM, nil
}

// Entry returns the full row the Lookup would use for utilization u.
func (t *Table) EntryFor(u units.Percent) (Entry, error) {
	if len(t.Entries) == 0 {
		return Entry{}, fmt.Errorf("lut: empty table")
	}
	u = u.Clamp()
	for _, e := range t.Entries {
		if u <= e.Util {
			return e, nil
		}
	}
	return t.Entries[len(t.Entries)-1], nil
}

// WriteJSON serializes the table.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadJSON deserializes a table and validates its ordering.
func ReadJSON(r io.Reader) (*Table, error) {
	var t Table
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("lut: decode: %w", err)
	}
	if len(t.Entries) == 0 {
		return nil, fmt.Errorf("lut: empty table")
	}
	for i := 1; i < len(t.Entries); i++ {
		if t.Entries[i].Util <= t.Entries[i-1].Util {
			return nil, fmt.Errorf("lut: entries not sorted by utilization at %d", i)
		}
	}
	return &t, nil
}

func (t *Table) String() string {
	s := "util%  rpm   Tss(°C)  fan+leak(W)\n"
	for _, e := range t.Entries {
		s += fmt.Sprintf("%5.0f  %4.0f  %6.1f  %8.2f\n",
			float64(e.Util), float64(e.RPM), float64(e.PredictedTemp), float64(e.FanLeakPower))
	}
	return s
}
