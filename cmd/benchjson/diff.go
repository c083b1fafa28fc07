package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// loadArchive reads one BENCH_*.json document. An older archive names one
// package for all its records; each record takes it.
func loadArchive(path string) (*Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var arch Archive
	if err := json.NewDecoder(f).Decode(&arch); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range arch.Benchmarks {
		if arch.Benchmarks[i].Package == "" {
			arch.Benchmarks[i].Package = arch.Package
		}
	}
	return &arch, nil
}

// diffArchives prints the per-benchmark trajectory between two archives:
// mean ns/op with the relative delta, every shared custom metric the same
// way, and the benchmarks only one side has. Rows are sorted by name, so
// the report is stable for any input ordering.
//
// Records align on package and name. A row is labelled by the name alone
// when both archives hold one package, and by the name and its package
// otherwise.
func diffArchives(w io.Writer, old, new *Archive) {
	pkgs := map[string]bool{}
	for _, a := range []*Archive{old, new} {
		for _, r := range a.Benchmarks {
			pkgs[r.Package] = true
		}
	}
	key := func(r Record) string {
		if len(pkgs) > 1 {
			return r.Name + " (" + r.Package + ")"
		}
		return r.Name
	}
	oldBy := map[string]Record{}
	for _, r := range old.Benchmarks {
		oldBy[key(r)] = r
	}
	newBy := map[string]Record{}
	for _, r := range new.Benchmarks {
		newBy[key(r)] = r
	}
	names := map[string]bool{}
	for n := range oldBy {
		names[n] = true
	}
	for n := range newBy {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	label := func(a *Archive, fallback string) string {
		if a.Label != "" {
			return a.Label
		}
		return fallback
	}
	fmt.Fprintf(w, "%-44s %14s %14s %9s\n", "benchmark",
		label(old, "old"), label(new, "new"), "delta")
	var onlyOld, onlyNew []string
	for _, n := range sorted {
		o, inOld := oldBy[n]
		nw, inNew := newBy[n]
		if !inOld {
			onlyNew = append(onlyNew, n)
			continue
		}
		if !inNew {
			onlyOld = append(onlyOld, n)
			continue
		}
		fmt.Fprintf(w, "%-44s %14s %14s %9s\n", n,
			formatNs(o.NsPerOp.Mean), formatNs(nw.NsPerOp.Mean),
			formatDelta(o.NsPerOp.Mean, nw.NsPerOp.Mean))
		metrics := map[string]bool{}
		for k := range o.Metrics {
			metrics[k] = true
		}
		for k := range nw.Metrics {
			metrics[k] = true
		}
		ms := make([]string, 0, len(metrics))
		for k := range metrics {
			ms = append(ms, k)
		}
		sort.Strings(ms)
		for _, k := range ms {
			om, inO := o.Metrics[k]
			nm, inN := nw.Metrics[k]
			switch {
			case !inO:
				fmt.Fprintf(w, "  %-42s %14s %14.4g %9s\n", k, "-", nm.Mean, "new")
			case !inN:
				fmt.Fprintf(w, "  %-42s %14.4g %14s %9s\n", k, om.Mean, "-", "gone")
			default:
				fmt.Fprintf(w, "  %-42s %14.4g %14.4g %9s\n", k, om.Mean, nm.Mean,
					formatDelta(om.Mean, nm.Mean))
			}
		}
	}
	for _, n := range onlyOld {
		fmt.Fprintf(w, "only in %s: %s\n", label(old, "old"), n)
	}
	for _, n := range onlyNew {
		fmt.Fprintf(w, "only in %s: %s\n", label(new, "new"), n)
	}
}

// formatNs renders a ns/op mean compactly (benchmarks here span 5 ns to
// tens of milliseconds per op).
func formatNs(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.3gms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gµs", v/1e3)
	default:
		return fmt.Sprintf("%.3gns", v)
	}
}

// formatDelta renders the relative change new vs old.
func formatDelta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}
