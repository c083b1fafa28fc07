package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/snap"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Unit-cost rungs are measured in steady state: a warm-up batch sizes the
// batch to at least rungBatch, then the median of rungBatches batches
// gives the cost per operation.
const (
	rungBatch   = 50 * time.Millisecond
	rungBatches = 5
	// rungLoad is the utilization every rung's servers run at.
	rungLoad = units.Percent(70)
	// rungSettle is how long rung racks and rooms run at rungLoad, with
	// their controllers ticking, before anything is timed.
	rungSettle = 900
	// roomRungRacks is the rack count of the room.Step rungs.
	roomRungRacks = 8
)

// unitCost returns the median per-op time of op in ns. reset, when
// non-nil, runs untimed before every batch.
func unitCost(op func(), reset func()) float64 {
	batch := func(n int) time.Duration {
		if reset != nil {
			reset()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(t0)
	}
	n := 1
	for {
		d := batch(n)
		if d >= rungBatch {
			break
		}
		if d < rungBatch/8 {
			n *= 8
		} else {
			n = int(math.Ceil(float64(n)*1.2*float64(rungBatch)/float64(d))) + 1
		}
	}
	per := make([]float64, rungBatches)
	for i := range per {
		per[i] = float64(batch(n)) / float64(n)
	}
	return median(per)
}

// rungCosts are the steady-state unit costs of one workload's layers.
type rungCosts struct {
	linK16, linK256, linK4096, thermalStep float64 // ns, 4-node die/sink network
	macroK16, macroK256, serverStep        float64 // ns, one settled server
	advK1, advK16, advK256, rackStep       float64 // ns, the workload's settled rack
	roomW1, roomW2                         float64 // ns, Room.Step of 8 of the workload's racks
	encode, decode, capture                float64 // ns, one rack-faults-ckpt checkpoint
	lutBuild                               float64 // s, one LUT
}

// advanceCost interpolates rack.Advance's cost at window length k on a
// log2 scale between the measured rungs (K = 1, 16, 256), extrapolating
// the upper segment past 256 — the ladder's cost grows with log K.
func (c rungCosts) advanceCost(k float64) float64 {
	x := math.Log2(math.Max(k, 1))
	if x <= 4 {
		return c.advK1 + (c.advK16-c.advK1)*x/4
	}
	return c.advK16 + (c.advK256-c.advK16)*(x-4)/4
}

func measureRungs(w workload, traces [][]loadgen.JobSpec) (rungCosts, error) {
	var c rungCosts
	if err := thermalRungs(&c); err != nil {
		return c, err
	}
	if err := serverRungs(&c); err != nil {
		return c, err
	}
	p, err := setup(w, traces, nil)
	if err != nil {
		return c, err
	}
	if err := rackRungs(&c, p.spec); err != nil {
		return c, err
	}
	if err := roomRungs(&c, w, p.spec); err != nil {
		return c, err
	}
	if err := snapRungs(&c); err != nil {
		return c, err
	}
	bc := lut.DefaultBuild()
	bc.Workers = 1
	var buildErr error
	c.lutBuild = unitCost(func() {
		if _, err := lut.Build(server.T3Config(), bc); err != nil {
			buildErr = err
		}
	}, nil) / 1e9
	return c, buildErr
}

// thermalRungs time StepLinearizedN and Step on the server's 4-node
// network (two sockets, die and sink each) built from T3Config parameters
// at 2400 RPM and 70 % load. The drift cap is set high enough that every
// call climbs the full ladder; temperatures are reset to the settled point
// before each call so every call does identical work.
func thermalRungs(c *rungCosts) error {
	cfg := server.T3Config()
	n := thermal.NewNetwork(cfg.MaxThermalStep)
	inlet := n.AddBoundary("inlet", float64(cfg.Ambient))
	var dies []thermal.NodeID
	for s := 0; s < 2; s++ {
		die, err := n.AddNode(fmt.Sprintf("die%d", s), cfg.CDie, float64(cfg.Ambient))
		if err != nil {
			return err
		}
		sink, err := n.AddNode(fmt.Sprintf("sink%d", s), cfg.CSink, float64(cfg.Ambient))
		if err != nil {
			return err
		}
		if _, err := n.ConnectNodes(die, sink, 1/cfg.RDie); err != nil {
			return err
		}
		if _, err := n.ConnectBoundary(sink, inlet, 1/(cfg.RSinkBase+cfg.RSinkFlow/2400)); err != nil {
			return err
		}
		dies = append(dies, die)
	}
	const anchorC = 60
	perSocket := (float64(cfg.Power.Active.Power(rungLoad)) + float64(cfg.Power.Leakage.Power(anchorC))) / 2
	slopes := make([]float64, n.NumNodes())
	for _, d := range dies {
		if err := n.SetPower(d, perSocket); err != nil {
			return err
		}
		slopes[d] = cfg.Power.Leakage.Slope(anchorC) / 2
	}
	if err := n.Settle(); err != nil {
		return err
	}
	temps := make([]float64, n.NumNodes())
	for i := range temps {
		temps[i] = n.Temp(thermal.NodeID(i))
	}
	sums := make([]float64, n.NumNodes())
	for _, k := range []int{16, 256, 4096} {
		got := 0
		cost := unitCost(func() {
			for i, t := range temps {
				_ = n.SetTemp(thermal.NodeID(i), t)
			}
			got = n.StepLinearizedN(1, k, slopes, math.MaxFloat64, sums)
		}, nil)
		if got != k {
			return fmt.Errorf("StepLinearizedN climbed %d of %d steps", got, k)
		}
		switch k {
		case 16:
			c.linK16 = cost
		case 256:
			c.linK256 = cost
		default:
			c.linK4096 = cost
		}
	}
	c.thermalStep = unitCost(func() { n.Step(1) }, nil)
	return nil
}

// serverRungs time MacroWindow and Step on one T3 server settled at 70 %
// load.
func serverRungs(c *rungCosts) error {
	s, err := server.New(server.T3Config())
	if err != nil {
		return err
	}
	s.SetLoad(rungLoad)
	for i := 0; i < rungSettle; i++ {
		s.Step(1)
	}
	anchors := s.MacroStats().Anchors
	c.macroK16 = unitCost(func() { s.MacroWindow(1, 16) }, nil)
	c.macroK256 = unitCost(func() { s.MacroWindow(1, 256) }, nil)
	if s.MacroStats().Anchors == anchors {
		return fmt.Errorf("server macro windows never collapsed")
	}
	c.serverStep = unitCost(func() { s.Step(1) }, nil)
	return nil
}

// settledRack builds the workload's rack with every slot at rungLoad and
// steps it until its controllers and temperatures settle.
func settledRack(spec rackSpec) (*rack.Rack, error) {
	r, err := spec.build(nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < r.NumServers(); i++ {
		r.SetLoad(i, rungLoad)
	}
	for i := 0; i < rungSettle; i++ {
		r.Step(1)
	}
	return r, nil
}

func rackRungs(c *rungCosts, spec rackSpec) error {
	r, err := settledRack(spec)
	if err != nil {
		return err
	}
	// ResetAccounting between batches bounds the reliability sample log the
	// fault workload's rack appends to.
	reset := r.ResetAccounting
	c.advK1 = unitCost(func() { r.Advance(1, 1) }, reset)
	c.advK16 = unitCost(func() { r.Advance(1, 16) }, reset)
	c.advK256 = unitCost(func() { r.Advance(1, 256) }, reset)
	c.rackStep = unitCost(func() { r.Step(1) }, reset)
	return nil
}

// roomRungs time Room.Step at one and two workers on a room of 8 of the
// workload's racks — room-dense's own room, or 8 copies of a rack
// workload's rack (without its facility: the room owns the cooling).
func roomRungs(c *rungCosts, w workload, spec rackSpec) error {
	rackCfgs := make([][]server.Config, roomRungRacks)
	if w.kind == kindRoom {
		rackCfgs = roomRackConfigs(server.T3Config(), w.racks, w.servers)
	} else {
		for i := range rackCfgs {
			rackCfgs[i] = spec.cfgs
		}
	}
	for _, workers := range []int{1, 2} {
		rm, err := newRoom(rackCfgs, spec.tables, workers, nil)
		if err != nil {
			return err
		}
		for i := 0; i < rm.NumRacks(); i++ {
			rk := rm.Rack(i)
			for s := 0; s < rk.NumServers(); s++ {
				rk.SetLoad(s, rungLoad)
			}
		}
		for i := 0; i < rungSettle; i++ {
			rm.Step(1)
		}
		cost := unitCost(func() { rm.Step(1) }, rm.ResetAccounting)
		if workers == 1 {
			c.roomW1 = cost
		} else {
			c.roomW2 = cost
		}
	}
	return nil
}

// snapRungs time snap.Encode, snap.Decode and rack.Snapshot on the real
// rack-faults-ckpt checkpoint nearest the resume instant of its first cell,
// at the golden seed.
func snapRungs(c *rungCosts) error {
	w, err := findWorkload("rack-faults-ckpt")
	if err != nil {
		return err
	}
	w.traces = 1
	traces, err := w.jobTraces(goldenSeed)
	if err != nil {
		return err
	}
	p, err := setup(w, traces, nil)
	if err != nil {
		return err
	}
	cl := p.cells[0]
	if err := sched.Settle(cl.rack, dt, settleS, true); err != nil {
		return err
	}
	cl.rack.ResetAccounting()
	var ck sched.Checkpoint
	found := false
	_, err = sched.RunTraceCfg(cl.rack, cl.jobs, cl.policy, sched.TraceConfig{
		Dt: dt, Horizon: w.horizon, EventStepping: true, Faults: p.faults, SampleEvery: 10,
		CheckpointEvery: ckptEvery,
		CheckpointSink: func(k sched.Checkpoint) error {
			if !found || math.Abs(float64(k.K)*dt-resumeAt) < math.Abs(float64(ck.K)*dt-resumeAt) {
				ck, found = k, true
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("no checkpoint taken")
	}
	var buf bytes.Buffer
	var encErr error
	c.encode = unitCost(func() {
		buf.Reset()
		if err := snap.Encode(&buf, ck); err != nil {
			encErr = err
		}
	}, nil)
	if encErr != nil {
		return encErr
	}
	encoded := append([]byte(nil), buf.Bytes()...)
	var decErr error
	c.decode = unitCost(func() {
		var got sched.Checkpoint
		if err := snap.Decode(bytes.NewReader(encoded), &got); err != nil {
			decErr = err
		}
	}, nil)
	if decErr != nil {
		return decErr
	}
	r, err := p.spec.build(nil)
	if err != nil {
		return err
	}
	if err := r.Restore(ck.Rack); err != nil {
		return err
	}
	var capErr error
	c.capture = unitCost(func() {
		if _, err := r.Snapshot(); err != nil {
			capErr = err
		}
	}, nil)
	return capErr
}
