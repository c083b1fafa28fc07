// Package leakctl is a Go reproduction of "Leakage and Temperature Aware
// Server Control for Improving Energy Efficiency in Data Centers"
// (Zapater et al., DATE 2013).
//
// It provides, as one library:
//
//   - a calibrated simulation of the paper's instrumented SPARC T3-2 class
//     enterprise server (two-node RC thermal model per socket, the paper's
//     own fitted power model as ground truth, six externally powered fans,
//     CSTH-style telemetry, LoadGen-style PWM load synthesis);
//   - the Section IV methodology: characterization sweeps and the
//     leakage-model fit Pcpu = k1·U + C + k2·e^(k3·T);
//   - the Section V controllers: the LUT-based proactive fan controller
//     (the paper's contribution), the bang-bang thermal baseline, and the
//     fixed-speed default;
//   - the full evaluation harness regenerating Figures 1-3 and Table I.
//
// The quickest way in: build the paper's lookup table and run its
// controller against a Table I workload.
//
//	cfg := leakctl.T3Config()
//	table, err := leakctl.BuildLUT(cfg, leakctl.DefaultLUTBuild())
//	ctrl, err := leakctl.NewLUTController(table, leakctl.DefaultLUT())
//	tests, err := leakctl.TestWorkloads(42)
//	res, err := leakctl.RunControlled(cfg, tests[0].Profile, ctrl, leakctl.DefaultEval())
//
// This package is a facade over what the example programs and godoc
// examples use; the implementation lives in the internal packages, and
// the commands under cmd/ drive them directly.
package leakctl

import (
	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fitting"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/plot"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// Physical quantity types.
type (
	// Celsius is a temperature in °C.
	Celsius = units.Celsius
	// Watts is an instantaneous power.
	Watts = units.Watts
	// Joules is an energy.
	Joules = units.Joules
	// RPM is a fan speed.
	RPM = units.RPM
	// Percent is a utilization level in [0, 100].
	Percent = units.Percent
)

// Server simulation.
type (
	// Server is the simulated enterprise server.
	Server = server.Server
	// ServerConfig parameterizes the simulated server.
	ServerConfig = server.Config
	// ThermalIntegrator selects the RC network stepping scheme via
	// ServerConfig.ThermalIntegrator.
	ThermalIntegrator = thermal.Integrator
)

// Thermal integrator choices. The exact propagator is the default (zero
// value); RK4 is the fixed-step fallback kept as ground truth.
const (
	IntegratorExact = thermal.IntegratorExact
	IntegratorRK4   = thermal.IntegratorRK4
)

// T3Config returns the calibrated reproduction of the paper's SPARC T3-2
// class server.
func T3Config() ServerConfig { return server.T3Config() }

// NewServer builds a simulated server.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// SteadyTemp predicts the equilibrium CPU temperature at a utilization and
// fan speed; it errors on thermally unstable (runaway) operating points.
func SteadyTemp(cfg ServerConfig, u Percent, r RPM) (Celsius, error) {
	return server.SteadyTemp(cfg, u, r)
}

// Controllers.
type (
	// Controller is the fan-control policy interface.
	Controller = control.Controller
	// Observation is a controller's view of the machine at one instant.
	Observation = control.Observation
	// Decision is a controller's output.
	Decision = control.Decision
	// LUTController is the paper's proactive utilization-indexed policy.
	LUTController = control.LUT
	// BangBangController is the reactive thermal baseline.
	BangBangController = control.BangBang
	// DefaultController pins the fans at the stock fixed speed.
	DefaultController = control.Default
	// LUTConfig tunes the LUT controller.
	LUTConfig = control.LUTConfig
	// BangBangConfig tunes the bang-bang controller.
	BangBangConfig = control.BangBangConfig
)

// NewDefaultController returns the stock fixed-3300-RPM policy.
func NewDefaultController() *DefaultController { return control.NewDefault() }

// NewBangBangController returns the five-action thermal controller.
func NewBangBangController(cfg BangBangConfig) (*BangBangController, error) {
	return control.NewBangBang(cfg)
}

// NewLUTController returns the paper's LUT controller over a built table.
func NewLUTController(t *LUTTable, cfg LUTConfig) (*LUTController, error) {
	return control.NewLUT(t, cfg)
}

// DefaultBangBang returns the paper's bang-bang thresholds (60/65/75/80 °C).
func DefaultBangBang() BangBangConfig { return control.DefaultBangBang() }

// DefaultLUT returns the paper's 1 s polling / 60 s hold-off configuration.
func DefaultLUT() LUTConfig { return control.DefaultLUT() }

// Lookup table.
type (
	// LUTTable is the utilization → optimal fan speed table.
	LUTTable = lut.Table
	// LUTEntry is one row of the table.
	LUTEntry = lut.Entry
	// LUTBuildConfig controls table generation.
	LUTBuildConfig = lut.BuildConfig
)

// BuildLUT generates a lookup table from a server configuration.
func BuildLUT(cfg ServerConfig, b LUTBuildConfig) (*LUTTable, error) { return lut.Build(cfg, b) }

// DefaultLUTBuild returns the paper's grid and 75 °C cap.
func DefaultLUTBuild() LUTBuildConfig { return lut.DefaultBuild() }

// LUTDiskCache caches built tables on disk keyed by config hash, so
// repeated processes skip identical steady-state grids. The zero value
// builds directly.
type LUTDiskCache = lut.DiskCache

// Model fitting (Section IV).
type (
	// FitResult is the recovered leakage/active power model.
	FitResult = fitting.FitResult
	// Dataset is the characterization telemetry.
	Dataset = fitting.Dataset
	// SweepConfig controls the characterization campaign.
	SweepConfig = fitting.SweepConfig
)

// End-to-end pipeline.
type (
	// Pipeline bundles every stage configuration.
	Pipeline = core.PipelineConfig
	// PipelineResult carries all pipeline artifacts.
	PipelineResult = core.PipelineResult
)

// Workloads.
type (
	// Profile is a utilization-over-time workload.
	Profile = loadgen.Profile
	// NamedWorkload is a Table I test with its id and name.
	NamedWorkload = workload.Named
	// QueueConfig parameterizes the Test-4 M/M/c shell workload.
	QueueConfig = workload.QueueConfig
)

// TestWorkloads builds the paper's four 80-minute Table I tests.
func TestWorkloads(seed int64) ([]NamedWorkload, error) { return workload.AllTests(seed) }

// Evaluation harness.
type (
	// EvalConfig controls a controller run.
	EvalConfig = experiments.EvalConfig
	// RunResult carries every Table I column for one run.
	RunResult = experiments.RunResult
	// TableIRow compares the three controllers on one test.
	TableIRow = experiments.TableIRow
	// TransientResult is a Fig. 1 temperature trajectory.
	TransientResult = experiments.TransientResult
	// TradeoffCurve is a Fig. 2 fan/leakage tradeoff series.
	TradeoffCurve = experiments.TradeoffCurve
	// Series is a plottable line.
	Series = plot.Series
	// Chart is a multi-series ASCII chart.
	Chart = plot.Chart
)

// DefaultEval returns the standard Table I run configuration.
func DefaultEval() EvalConfig { return experiments.DefaultEval() }

// RunControlled evaluates one controller on one workload.
func RunControlled(cfg ServerConfig, prof Profile, ctrl Controller, ec EvalConfig) (RunResult, error) {
	return experiments.RunControlled(cfg, prof, ctrl, ec)
}

// Fig2a regenerates Figure 2(a): the fan/leakage tradeoff at 100% load.
func Fig2a(cfg ServerConfig) (TradeoffCurve, error) { return experiments.Fig2a(cfg) }

// Rack-scale simulation and thermal-aware job scheduling.
type (
	// Rack is a set of heterogeneous simulated servers stepped in lockstep
	// over the bounded worker pool.
	Rack = rack.Rack
	// RackConfig parameterizes a Rack.
	RackConfig = rack.Config
	// RackServerSpec configures one rack slot (config, fan controller and
	// optional power supply).
	RackServerSpec = rack.ServerSpec
	// RackTelemetry is the rack-level aggregate view, DC and wall side.
	RackTelemetry = rack.Telemetry
	// Job is one schedulable unit of rack work.
	Job = sched.Job
	// PlacementPolicy decides which server runs a job.
	PlacementPolicy = sched.Policy
	// ServerView is a placement policy's telemetry snapshot of one server.
	ServerView = sched.ServerView
	// SchedResult summarizes a trace run's scheduling outcome.
	SchedResult = sched.Result
	// TraceConfig parameterizes a job-trace run (step, window, wall cap).
	TraceConfig = sched.TraceConfig
	// JobSpec is one job of a loadgen-synthesized trace.
	JobSpec = loadgen.JobSpec
	// PoissonTraceConfig parameterizes the Poisson job-trace generator.
	PoissonTraceConfig = loadgen.PoissonTraceConfig
)

// Power-delivery chain (PSU per server, shared PDU, wall-side telemetry).
type (
	// PSUModel converts a server's DC draw to AC input through a
	// load-dependent efficiency curve.
	PSUModel = power.PSUModel
	// PDUModel is the shared rack-level distribution unit feeding every
	// PSU from the utility wall.
	PDUModel = power.PDUModel
)

// DefaultPSU returns the 94%-asymptote server supply model.
func DefaultPSU() PSUModel { return power.DefaultPSU() }

// DefaultPDU returns the 98%-asymptote rack distribution model.
func DefaultPDU() PDUModel { return power.DefaultPDU() }

// Facility cooling loop (CRAC air handler + chiller COP chain).
type (
	// CRACModel is the room air handler: cold-aisle supply setpoint,
	// air-transport (blower) cost.
	CRACModel = cooling.CRACModel
	// ChillerModel removes the collected heat at COP = COP0·f(load,
	// outdoor), improving with a warmer supply setpoint.
	ChillerModel = cooling.ChillerModel
	// Facility is the assembled CRAC+chiller loop a rack attaches via
	// RackConfig.Facility: every wall Watt becomes room heat removed at a
	// load- and setpoint-dependent cost, and the setpoint shifts every
	// server's ambient relative to the reference supply temperature.
	Facility = cooling.Facility
)

// DefaultCRAC returns the reference room unit (18 °C supply reference, 5%
// blower cost).
func DefaultCRAC() CRACModel { return cooling.DefaultCRAC() }

// DefaultFacility returns the default CRAC/chiller pair with the cold
// aisle at the given supply setpoint.
func DefaultFacility(supplyC Celsius) Facility { return cooling.DefaultFacility(supplyC) }

// NewRack builds a rack of simulated servers.
func NewRack(cfg RackConfig) (*Rack, error) { return rack.New(cfg) }

// RunJobTraceCfg is RunJobTrace with the full trace configuration,
// including the rack-level wall-power cap under which placements that
// would breach the budget are deferred.
func RunJobTraceCfg(r *Rack, jobs []Job, p PlacementPolicy, tc TraceConfig) (SchedResult, error) {
	return sched.RunTraceCfg(r, jobs, p, tc)
}

// NewRoundRobinPolicy returns the rotating placement baseline.
func NewRoundRobinPolicy() PlacementPolicy { return sched.NewRoundRobin() }

// Fault injection and graceful degradation.
type (
	// FaultKind enumerates the fault taxonomy (fan, PSU, trip, ambient,
	// facility faults).
	FaultKind = fault.Kind
	// FaultEvent is one scheduled fault: a kind, its target, an inject
	// time and an optional clear time.
	FaultEvent = fault.Event
	// FaultSchedule is a deterministic fault plan attached to a trace run
	// via TraceConfig.Faults.
	FaultSchedule = fault.Schedule
	// ServerHealth is the scheduler-facing state of one rack slot
	// (healthy, tripped, or failed/dark).
	ServerHealth = rack.Health
)

// Fault kinds (see FaultKind).
const (
	FanStick         = fault.FanStick
	FanFail          = fault.FanFail
	PSUDroop         = fault.PSUDroop
	PSUFail          = fault.PSUFail
	ServerTrip       = fault.ServerTrip
	AmbientExcursion = fault.AmbientExcursion
	CRACOutage       = fault.CRACOutage
	ChillerDegraded  = fault.ChillerDegraded
)

// Server health states (see ServerHealth).
const (
	Healthy = rack.Healthy
	Tripped = rack.Tripped
	Failed  = rack.Failed
)

// Room scale: N racks behind one shared CRAC bank, thermally coupled by
// heat recirculation, placed by a two-level policy (rack chooser + slot
// policy).
type (
	// Room is N racks stepped in lockstep behind a shared cooling loop
	// with row-major heat-recirculation coupling between them.
	Room = room.Room
	// RoomConfig parameterizes a Room: racks, the recirculation matrix,
	// the exhaust-rise coefficient and the shared facility.
	RoomConfig = room.Config
	// RoomRackSpec configures one rack of a room.
	RoomRackSpec = room.RackSpec
	// RecircMatrix is the row-major heat-recirculation coupling: entry
	// [i][j] is the fraction of rack i's exhaust rise reappearing at rack
	// j's inlet.
	RecircMatrix = room.Matrix
	// RoomTelemetry is the room-level aggregate view: rack telemetry
	// summed plus the shared-facility and recirculation meters.
	RoomTelemetry = room.Telemetry
	// RoomTraceConfig parameterizes a room trace run (per-rack fault
	// schedules, event-driven kernel, metrics).
	RoomTraceConfig = room.TraceConfig
	// RoomSchedResult summarizes the scheduling outcome of a room trace.
	RoomSchedResult = room.Result
	// RoomPolicy is the two-level placement policy: a RackChooser picks
	// the rack, that rack's PlacementPolicy picks the slot.
	RoomPolicy = room.Policy
	// RackChooser decides which rack a job goes to.
	RackChooser = room.RackChooser
	// RackView is a chooser's snapshot of one rack at a placement
	// instant.
	RackView = room.RackView
	// EconomizerModel is the water-side economizer option for the shared
	// bank: free cooling below the outdoor engagement threshold.
	EconomizerModel = cooling.EconomizerModel
)

// NewRoom builds a room from its spec, constructing every rack.
func NewRoom(cfg RoomConfig) (*Room, error) { return room.New(cfg) }

// NeighborRecircMatrix returns the default coupling for n racks in one
// row: 12% of a rack's exhaust rise reaches each adjacent inlet, 4% two
// positions away.
func NeighborRecircMatrix(n int) *RecircMatrix { return room.NeighborMatrix(n) }
