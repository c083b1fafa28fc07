// Package room scales the simulator from one rack to a machine room: N
// rack.Rack instances stepped in lockstep behind a shared CRAC/chiller
// bank, thermally coupled through a heat-recirculation matrix, and fed by
// a room-level dispatcher that picks a rack before delegating the slot
// choice to that rack's sched.Policy.
//
// # Two-level determinism contract
//
// The room fans out over racks exactly the way a rack fans out over
// servers, one more level of the repo-wide contract:
//
//   - Fan-out job i writes only rack i's state. Rooms force every rack's
//     internal Workers to 1, so the inner per-server loop runs serially on
//     the job's goroutine — parallelism lives at exactly one level and the
//     goroutine count stays bounded by the room's Workers.
//   - Every cross-rack reduction — room energy integration, peak wall and
//     facility power, worst inlet/DIMM/CPU temperatures, PUE, and the
//     recirculation offsets themselves — runs serially in rack-index order
//     after the barrier.
//
// Together these make every room metric, telemetry dump and obs counter
// byte-identical for any Workers value, which TestRoomDeterminism pins
// under -race.
//
// # One rack pool per run
//
// RunTrace and Settle cross every step or segment on one par.Pool that
// lives exactly as long as the call: min(Workers, GOMAXPROCS, racks)
// workers, each owning a fixed, contiguous block of racks for the whole
// run, the calling goroutine working the first block. Between barriers a
// worker spins for a bounded time and then parks; the pool closes when
// the call returns, cancelled or diverged runs included, so nothing spins
// after it. Output is byte-identical for every worker count. Room.Step,
// outside a run, fans out with par.ForEach.
//
// The serial phase between two barriers reads and writes rack-level state
// only; every per-server touch lives in the rack's own fan-out job. That
// job first hands its servers the loads the kernel committed and the
// recirculation shift the last re-anchor left pending, and after its last
// advance records what the serial phase will read: its slots' placement
// views, health, ambients and inlet preheat, its trip risk and its state
// sum for the divergence guard. After the barrier the re-anchor moves
// only mirrored ambients, from which Place builds the inlets the servers
// will step under, bit for bit (server.ShiftedAmbient); a fault edge
// applies its rack's pending shift first, so offsets compose in the same
// order as under Room.Step, and refills the rack.
//
// # Heat recirculation and re-anchoring
//
// The row-major Matrix W couples exhausts to inlets: rack i's exhaust
// temperature rise ΔT_i (its wall draw times Config.ExhaustRiseCPerKW)
// raises rack j's inlet by W[i][j]·ΔT_i. Offsets are recomputed serially
// after every barrier — each step on the fixed-dt path, each segment
// boundary under event stepping — and applied as deltas through
// rack.AddAmbientOffset before the racks step again, composing with fault
// heat soaks. Within a
// segment the offsets are held constant and re-anchored at its end, so
// the coupling lags by up to one segment. TestRoomEventMatchesFixed pins
// the event kernel to 1e-6 relative energy against the fixed-dt
// reference for uncoupled rooms, and for coupled rooms only while
// SampleEvery (10 s there) bounds every segment. The configuration the
// experiments and the benchmark run — coupled, SampleEvery 0, event
// settle — reads up to 8.1e-5 (ROADMAP item 1, the recirculation
// horizon). A zero matrix applies no offset at all, leaving every rack
// bit-identical to independent stepping.
//
// Energy is conserved by construction: the shared facility removes exactly
// the heat the racks reject (Σ rack wall watts — the recirculated fraction
// redistributes heat between inlets; it does not create any), so the
// room's independently integrated heat meter equals the sum of the rack
// wall meters to float reordering (≤1e-9 relative, TestRoomHeatConservation).
//
// # One trace kernel
//
// RunTrace and Settle run on internal/sched's trace kernel
// (sched.RunPlant, sched.SettlePlant): the room is a sched.Plant whose
// head-placement hook is the two-level chooser→slot policy over
// RackViews, so the decision step, fault-edge pinning, float-exact step
// arithmetic, cancellation check, divergence guard, pin taxonomy and
// metric handles are the rack runner's, reported under room.*. Under
// event stepping a segment ends where a rack run's window would, bar the
// controller horizon: within a segment each rack chunks on its own
// (sched.Segment.Chunk), a rack whose controllers promise quiet crossing
// it in closed-form macro windows (rack.Advance) while a pinned rack
// single-steps, so one noisy rack does not drag the whole room to
// fixed-dt. Σ pins == advances − macro windows holds per rack and
// room-wide (TestRoomPinIdentity).
package room
