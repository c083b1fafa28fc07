// Command benchjson converts `go test -bench` output into the BENCH_*.json
// archive format the ROADMAP's benchmark-trajectory workflow diffs across
// PRs: one record per benchmark with ns/op, iteration count, allocation
// stats and every custom metric (the headline physics quantities each
// benchmark reports). Repeated runs of the same benchmark (-count=N) are
// aggregated into min/mean/max so benchstat-style comparisons of the
// ns_per_op fields are meaningful on noisy hosts.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem -count=10 . | go run ./cmd/benchjson > BENCH_PR5.json
//	go run ./cmd/benchjson -in bench.txt -label pr5 > BENCH_PR5.json
//
// To diff two archives:
//
//	go run ./cmd/benchjson -diff BENCH_PR5.json BENCH_PR7.json
//
// which prints mean ns/op and every shared custom metric side by side
// with relative deltas, plus the benchmarks only one archive has. The
// JSON is stable, sorted by name, so diffs are order-independent.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one `BenchmarkX-N  iters  123 ns/op  ...` line.
type sample struct {
	iters   int
	nsPerOp float64
	metrics map[string]float64
}

// Stat summarizes repeated samples of one quantity.
type Stat struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

func statOf(xs []float64) Stat {
	s := Stat{Min: xs[0], Max: xs[0], N: len(xs)}
	sum := 0.0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	return s
}

// Record is one benchmark's archived entry. A benchmark is identified by
// its package and name together, so same-named benchmarks of two packages
// in one input stay two records.
type Record struct {
	Name    string          `json:"name"`
	Package string          `json:"pkg,omitempty"` // the `pkg:` header above its lines
	NsPerOp Stat            `json:"ns_per_op"`
	Iters   int             `json:"iterations"`
	Metrics map[string]Stat `json:"metrics,omitempty"`
}

// Archive is the whole BENCH_*.json document.
type Archive struct {
	Label      string   `json:"label,omitempty"`
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Package    string   `json:"pkg,omitempty"` // archives before per-record packages: every record's package
	CreatedUTC string   `json:"created_utc"`
	Benchmarks []Record `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "bench output file (default: stdin)")
	label := flag.String("label", "", "archive label, e.g. the PR identifier")
	diff := flag.Bool("diff", false, "compare two archives: benchjson -diff old.json new.json")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two archives: benchjson -diff old.json new.json")
			os.Exit(2)
		}
		oldArch, err := loadArchive(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		newArch, err := loadArchive(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		diffArchives(os.Stdout, oldArch, newArch)
		return
	}

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	arch, err := parse(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	arch.Label = *label
	arch.CreatedUTC = time.Now().UTC().Format(time.RFC3339)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(arch); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// benchKey identifies one benchmark across an input: its package and name.
type benchKey struct{ pkg, name string }

// parse reads `go test -bench` output: header lines (goos/goarch/pkg) and
// benchmark result lines, each attributed to the package of the last
// `pkg:` line above it, so concatenated runs of several packages archive
// side by side. Unparseable lines are ignored, so PASS/ok trailers and -v
// noise pass through harmlessly.
func parse(r io.Reader) (*Archive, error) {
	arch := &Archive{}
	samples := map[benchKey][]sample{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			arch.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			arch.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		name, s, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		k := benchKey{pkg, name}
		samples[k] = append(samples[k], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found in input")
	}
	keys := make([]benchKey, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].pkg < keys[j].pkg
	})
	for _, k := range keys {
		ss := samples[k]
		rec := Record{Name: k.name, Package: k.pkg, Metrics: map[string]Stat{}}
		var ns []float64
		byMetric := map[string][]float64{}
		for _, s := range ss {
			ns = append(ns, s.nsPerOp)
			rec.Iters += s.iters
			for k, v := range s.metrics {
				byMetric[k] = append(byMetric[k], v)
			}
		}
		rec.NsPerOp = statOf(ns)
		for k, vs := range byMetric {
			rec.Metrics[k] = statOf(vs)
		}
		if len(rec.Metrics) == 0 {
			rec.Metrics = nil
		}
		arch.Benchmarks = append(arch.Benchmarks, rec)
	}
	return arch, nil
}

// parseBenchLine splits "BenchmarkX-8  5  123456 ns/op  42.0 widgets  8 B/op".
func parseBenchLine(line string) (string, sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", sample{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix so archives from different hosts align.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return "", sample{}, false
	}
	s := sample{iters: iters, metrics: map[string]float64{}}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", sample{}, false
		}
		unit := fields[i+1]
		switch unit {
		case "ns/op":
			s.nsPerOp = v
			seenNs = true
		case "B/op", "allocs/op", "MB/s":
			s.metrics[unit] = v
		default:
			s.metrics[unit] = v
		}
	}
	return name, s, seenNs
}
