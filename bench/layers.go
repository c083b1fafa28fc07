package main

import (
	"math"

	"repro/internal/obs"
	"repro/internal/sched"
)

// eventPins are the event kernels' pin reasons (every name but the
// fixed-dt kernel's own).
func eventPins() []string {
	var out []string
	for _, r := range sched.PinReasonNames() {
		if r != "fixed-dt" {
			out = append(out, r)
		}
	}
	return out
}

// perLayer lists the traced run's metrics in print order. The kernels'
// counters come from the obs registry the traced rep attaches; busy times
// from the wrappers around Place, Tick, Choose, the checkpoint sink and the
// resume path; *_ns and lut.build_s from the unit-cost rungs.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		l("thermal.step_linearized_ns.k16", "ns", "lower"),
		l("thermal.step_linearized_ns.k256", "ns", "lower"),
		l("thermal.step_linearized_ns.k4096", "ns", "lower"),
		l("thermal.step_ns", "ns", "lower"),
		l("thermal.prop_hit_ratio", "ratio", "higher"),
		l("thermal.prop_builds", "count", "lower"),
		l("thermal.drift_stops", "count", "lower"),
		l("server.macro_window_ns.k16", "ns", "lower"),
		l("server.macro_window_ns.k256", "ns", "lower"),
		l("server.step_ns", "ns", "lower"),
		l("server.macro_anchors", "count", "lower"),
		l("server.collapsed_steps", "count", "higher"),
		l("server.plain_steps", "count", "lower"),
		l("server.plain.tail", "count", "lower"),
		l("server.plain.slew", "count", "lower"),
		l("server.plain.drift", "count", "lower"),
		l("server.plain.trip_band", "count", "lower"),
		l("server.collapse_ratio", "ratio", "higher"),
		l("rack.advance_ns.k1", "ns", "lower"),
		l("rack.advance_ns.k16", "ns", "lower"),
		l("rack.advance_ns.k256", "ns", "lower"),
		l("rack.step_ns", "ns", "lower"),
		l("sched.advances", "count", "lower"),
		l("sched.macro_windows", "count", "lower"),
		l("sched.window_len_mean", "steps", "higher"),
	}
	for _, r := range eventPins() {
		defs = append(defs, l("sched.pin."+r, "count", "lower"))
	}
	defs = append(defs,
		l("sched.place_calls", "count", "lower"),
		l("sched.place_s", "s", "lower"),
		l("sched.place_yield", "ratio", "higher"),
		l("sched.deferrals", "count", "lower"),
		l("sched.backlog_highwater", "jobs", "lower"),
		l("control.tick_calls", "count", "lower"),
		l("control.tick_s", "s", "lower"),
		l("control.fan_changes", "count", "lower"),
		l("room.segments", "count", "lower"),
		l("room.rack_advances", "count", "lower"),
		l("room.macro_windows", "count", "lower"),
		l("room.window_len_mean", "steps", "higher"),
	)
	for _, r := range eventPins() {
		defs = append(defs, l("room.pin."+r, "count", "lower"))
	}
	return append(defs,
		l("room.step_ns.w1", "ns", "lower"),
		l("room.step_ns.w2", "ns", "lower"),
		l("room.choose_calls", "count", "lower"),
		l("room.choose_s", "s", "lower"),
		l("par.room_speedup", "ratio", "higher"),
		l("snap.checkpoints", "count", "lower"),
		l("snap.bytes_per_ckpt", "bytes", "lower"),
		l("snap.encode_s", "s", "lower"),
		l("snap.decode_s", "s", "lower"),
		l("snap.resume_s", "s", "lower"),
		l("snap.encode_ns", "ns", "lower"),
		l("snap.decode_ns", "ns", "lower"),
		l("snap.capture_ns", "ns", "lower"),
		l("lut.tables_built", "count", "lower"),
		l("lut.build_s", "s", "lower"),
		l("energy_rel_err", "ratio", "lower"),
		l("decomp.explained_frac", "ratio", "higher"),
		l("decomp.residual_s", "s", "lower"),
		l("trace.overhead_frac", "ratio", "lower"),
	)
}

// workloadOnly are busy times that exist only on the workload that
// exercises their layer (the chooser on room-dense, the checkpoint path on
// rack-faults-ckpt) and read exactly zero everywhere else. They are printed
// for every workload but left out of the summary line, whose time metrics
// must be measured on every run.
var workloadOnly = map[string]bool{
	"room.choose_s": true, "snap.encode_s": true, "snap.decode_s": true, "snap.resume_s": true,
}

// windowDelta returns the increments of the kernels' window-length
// histograms — one entry per rack.Advance call, labelled by its length in
// grid steps — between two registry images, keyed by bucket upper bound
// (the +Inf bucket keyed by twice the last finite bound).
func windowDelta(before, after obs.State) map[float64]uint64 {
	prev := make(map[string]obs.HistState)
	for _, h := range before.Hists {
		prev[h.Name] = h
	}
	out := make(map[float64]uint64)
	for _, h := range after.Hists {
		if h.Name != "kernel.window.len" && h.Name != "room.window.len" {
			continue
		}
		for i, n := range h.Counts {
			if p, ok := prev[h.Name]; ok && i < len(p.Counts) {
				n -= p.Counts[i]
			}
			if n == 0 {
				continue
			}
			k := 2 * h.Bounds[len(h.Bounds)-1]
			if i < len(h.Bounds) {
				k = h.Bounds[i]
			}
			out[k] += n
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills res with every per-layer metric of the traced pass.
// out and reg are the first traced rep's outcome and registry, repSpan its
// span; calls its wrapper timings.
func layerMetrics(res *result, w workload, c rungCosts, reg *obs.Registry, out repOut, tr *tracer, repSpan int, calls map[string]callSummary, overhead float64) {
	v := make(map[string]float64)
	for _, m := range reg.Snapshot() {
		if m.Kind == obs.KindHistogram {
			// Histograms contribute their mean as "<name>.mean".
			v[m.Name+".mean"] = ratio(m.Hist.Sum, float64(m.Hist.Count))
			continue
		}
		v[m.Name] = m.Value
	}
	plain := v["rack.macro.plain.integrator"] + v["rack.macro.plain.pinned"] + v["rack.macro.plain.slew"] +
		v["rack.macro.plain.trip_band"] + v["rack.macro.plain.drift"] + v["rack.macro.plain.tail"]
	collapsed := v["rack.macro.collapsed_steps"]
	roomSpeedup := ratio(c.roomW1, c.roomW2)

	// Phase self times: the trace and resume spans of the first traced rep
	// minus the wrapped calls inside them. Ticks run on the room's fan-out
	// goroutines, so on room-dense their summed busy time is scaled by the
	// measured two-worker speedup before it is taken off the wall clock.
	par := 1.0
	if w.kind == kindRoom {
		par = roomSpeedup
	}
	var selfNs, resumeNs float64
	for i := range tr.spans {
		s := &tr.spans[i]
		if (s.Name != spanTrace && s.Name != spanResume) || !tr.within(i, repSpan) {
			continue
		}
		b := s.Busy
		self := float64(s.EndNs-s.StartNs) - float64(b.Place+b.Choose+b.Sink+b.Decode) - float64(b.Tick)/par
		selfNs += self
		if s.Name == spanResume {
			resumeNs += float64(s.EndNs-s.StartNs) - float64(b.Decode)
		}
	}
	// Decomposition: every rack.Advance priced at its window length, plus
	// the room's per-segment work beyond its racks and the kernel's
	// checkpoint captures.
	var predNs float64
	for _, m := range out.windows {
		for k, n := range m {
			predNs += float64(n) * c.advanceCost(k)
		}
	}
	if w.kind == kindRoom {
		predNs /= par
		predNs += v["room.segments"] * math.Max(0, c.roomW1-float64(roomRungRacks)*c.rackStep)
	}
	predNs += float64(out.ckpt.count) * c.capture

	placements := v["sched.placements"] + v["room.placements"]
	set := map[string]float64{
		"thermal.step_linearized_ns.k16":   c.linK16,
		"thermal.step_linearized_ns.k256":  c.linK256,
		"thermal.step_linearized_ns.k4096": c.linK4096,
		"thermal.step_ns":                  c.thermalStep,
		"thermal.prop_hit_ratio":           ratio(v["rack.prop.hits"], v["rack.prop.hits"]+v["rack.prop.misses"]),
		"thermal.prop_builds":              v["rack.prop.builds"],
		"thermal.drift_stops":              v["rack.macro.drift_stops"],
		"server.macro_window_ns.k16":       c.macroK16,
		"server.macro_window_ns.k256":      c.macroK256,
		"server.step_ns":                   c.serverStep,
		"server.macro_anchors":             v["rack.macro.anchors"],
		"server.collapsed_steps":           collapsed,
		"server.plain_steps":               plain,
		"server.plain.tail":                v["rack.macro.plain.tail"],
		"server.plain.slew":                v["rack.macro.plain.slew"],
		"server.plain.drift":               v["rack.macro.plain.drift"],
		"server.plain.trip_band":           v["rack.macro.plain.trip_band"],
		"server.collapse_ratio":            ratio(collapsed, collapsed+plain),
		"rack.advance_ns.k1":               c.advK1,
		"rack.advance_ns.k16":              c.advK16,
		"rack.advance_ns.k256":             c.advK256,
		"rack.step_ns":                     c.rackStep,
		"sched.advances":                   v["kernel.steps.total"],
		"sched.macro_windows":              v["kernel.windows.macro"],
		"sched.window_len_mean":            v["kernel.window.len.mean"],
		"sched.place_calls":                float64(calls["place"].Calls),
		"sched.place_s":                    calls["place"].TotalS,
		"sched.place_yield":                ratio(placements, float64(calls["place"].Calls)),
		"sched.deferrals":                  v["sched.deferrals"],
		"sched.backlog_highwater":          math.Max(v["sched.backlog.highwater"], v["room.backlog.highwater"]),
		"control.tick_calls":               float64(calls["tick"].Calls),
		"control.tick_s":                   calls["tick"].TotalS,
		"control.fan_changes":              float64(out.fanChanges),
		"room.segments":                    v["room.segments"],
		"room.rack_advances":               v["room.rack.steps.total"],
		"room.macro_windows":               v["room.windows.macro"],
		"room.window_len_mean":             v["room.window.len.mean"],
		"room.step_ns.w1":                  c.roomW1,
		"room.step_ns.w2":                  c.roomW2,
		"room.choose_calls":                float64(calls["choose"].Calls),
		"room.choose_s":                    calls["choose"].TotalS,
		"par.room_speedup":                 roomSpeedup,
		"snap.checkpoints":                 float64(out.ckpt.count),
		"snap.bytes_per_ckpt":              ratio(float64(out.ckpt.bytes), float64(out.ckpt.count)),
		"snap.encode_s":                    calls["checkpoint_sink"].TotalS,
		"snap.decode_s":                    calls["decode"].TotalS,
		"snap.resume_s":                    resumeNs / 1e9,
		"snap.encode_ns":                   c.encode,
		"snap.decode_ns":                   c.decode,
		"snap.capture_ns":                  c.capture,
		"lut.tables_built":                 float64(out.lutBuilds),
		"lut.build_s":                      c.lutBuild,
		"energy_rel_err":                   res.Metrics["energy_rel_err"].Value,
		"decomp.explained_frac":            ratio(predNs, selfNs),
		"decomp.residual_s":                (selfNs - predNs) / 1e9,
		"trace.overhead_frac":              overhead,
	}
	for _, r := range eventPins() {
		set["sched.pin."+r] = v["kernel.pin."+r]
		set["room.pin."+r] = v["room.pin."+r]
	}
	for _, m := range perLayer {
		res.set(m.Name, m.Unit, set[m.Name])
		if !workloadOnly[m.Name] {
			res.compared = append(res.compared, m.Name)
		}
	}
}

// within reports whether span i lies in the subtree rooted at span root.
func (t *tracer) within(i, root int) bool {
	for ; i >= 0; i = t.spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}
