package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/obs"
	"repro/internal/sched"
)

// metricScopes are the trace-run scopes a registry can hold, as the sched
// kernel registers them: the prefix of each one's advance, window and pin
// counters, its rack-advance counter and its breakdown's title.
var metricScopes = []struct{ kernel, steps, title string }{
	{"kernel", "kernel.steps.total", "why the kernel advanced one step instead of a macro window"},
	{"room", "room.rack.steps.total", "room.pin.*: why a rack advanced one step instead of a macro window"},
}

// printMetrics renders the run-metrics registry after an experiment: the
// pin-reason breakdown of every scope the runs registered, each with its
// sum identity — Σ per-reason single steps = total rack advances − macro
// windows, exact by construction — followed by the full sorted dump.
// Every reason in the taxonomy prints, zero or not, in the fixed
// PinReasonNames order, so runs are diffable line-by-line. A scope no run
// registered prints nothing and adds nothing to the dump.
func printMetrics(w io.Writer, reg *obs.Registry) {
	registered := map[string]bool{}
	for _, m := range reg.Snapshot() {
		registered[m.Name] = true
	}
	for _, sc := range metricScopes {
		if !registered[sc.steps] {
			continue
		}
		steps := reg.Counter(sc.steps).Value()
		macro := reg.Counter(sc.kernel + ".windows.macro").Value()
		grid := reg.Counter(sc.kernel + ".grid.steps").Value()
		fmt.Fprintf(w, "\nPin-reason breakdown (%s):\n", sc.title)
		var sum int64
		for _, name := range sched.PinReasonNames() {
			v := reg.Counter(sc.kernel + ".pin." + name).Value()
			sum += v
			fmt.Fprintf(w, "  %-12s %10d\n", name, v)
		}
		fmt.Fprintf(w, "pin identity: Σ pins %d = rack advances %d − macro windows %d (grid steps crossed: %d)\n",
			sum, steps, macro, grid)
	}
	fmt.Fprintf(w, "\nRun metrics (sorted; deterministic for every worker count):\n")
	reg.WriteText(w)
}

// serveDebug binds addr and serves /metrics (Prometheus text format of the
// live registry) plus the standard net/http/pprof endpoints for the rest
// of the process lifetime — the long-run introspection surface. Binding
// errors are returned immediately; serve errors after a successful bind
// are ignored (the experiment is the process's real job).
func serveDebug(addr string, reg *obs.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("evalctl: -debugaddr %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux) //nolint:errcheck — see doc comment
	hostport := ln.Addr().String()
	// Rewrite the unspecified host for a copy-pasteable URL.
	if host, port, err := net.SplitHostPort(hostport); err == nil {
		if host == "::" || host == "0.0.0.0" || strings.TrimSpace(host) == "" {
			hostport = net.JoinHostPort("127.0.0.1", port)
		}
	}
	return hostport, nil
}
