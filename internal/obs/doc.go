// Package obs is the run-metrics layer: a deterministic, allocation-free
// registry of counters, gauges and fixed-bucket histograms that every
// subsystem (event kernel, scheduler, rack, thermal network) instruments
// against, and that evalctl dumps after an experiment.
//
// # Determinism contract
//
// The registry mirrors internal/par's contract. A metrics dump must be
// byte-identical for every worker count, under the race detector, for the
// same inputs. Instrumented code achieves that by restricting itself to:
//
//   - serial-section updates: increments issued outside par.ForEach
//     fan-outs (the scheduler loop, fault application, post-barrier
//     reductions) carry no ordering hazard at all;
//   - per-slot counters: inside a fan-out, job i writes only plain
//     counters owned by slot i (thermal.Network, server.MacroStats), which
//     are folded into the registry serially, in index order, after the run
//     (rack.MetricsInto);
//   - commutative updates: when several runs of an experiment share one
//     registry across the worker pool, they may only use operations whose
//     result is order-independent — integer Counter.Add, Gauge.SetMax,
//     and Histogram.Observe with integer-valued samples (integer sums are
//     exact in float64, so accumulation order cannot change the bits).
//
// Exports (Snapshot, WriteText, WritePrometheus) sort by metric name, so
// registration order — which does vary across worker schedules — never
// leaks into output.
//
// # Cost contract
//
// Every hot-path method (Add, Inc, Set, SetMax, Observe) is
// allocation-free and nil-receiver-safe: with no registry attached the
// instrumented code paths pay one nil check and allocate nothing, which is
// what keeps the zero-allocation pins on server.Step, server.MacroWindow
// and rack.Step intact. Registration (Registry.Counter et al.) allocates and
// takes a lock; fetch metric handles once per run, not per step.
package obs
