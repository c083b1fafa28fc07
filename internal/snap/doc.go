// Package snap is the on-disk container for run checkpoints: a fixed
// header — magic, version, payload type fingerprint — framing a compact
// binary payload, with a decoder hardened against malformed input
// (checkpoint files are external data — they must error, never panic).
//
// # Format
//
// A snapshot file is
//
//	bytes 0..7   magic "REPROSNP"
//	bytes 8..11  format version, big-endian uint32
//	bytes 12..19 fingerprint of the payload's Go type graph, big-endian uint64
//	bytes 20..   payload
//
// The payload carries values only, in struct-field declaration order, with
// unexported fields skipped:
//
//	bool              one byte, 0 or 1
//	int, int64        zigzag varint
//	uint64            varint
//	float64           8 bytes, little-endian IEEE-754 bits
//	string            varint byte length, then the bytes
//	slice             varint element count, then the elements
//	pointer           one presence byte, 0 (nil) or 1, then the pointee
//	struct            its exported fields in order
//
// Floats travel as their raw bits, so ±Inf sentinels (control.State
// quiet-until), −0 and any NaN payload a diagnostic snapshot captures
// round-trip bit-exactly. Varints must be minimally encoded, so the
// encoding is canonical: every value has exactly one accepted byte form,
// and anything Decode accepts re-encodes to the same bytes. An empty
// slice decodes as nil. These kinds are the whole checkpoint DTO graph;
// any other kind (map, interface, array, chan, func, other numeric sizes)
// and recursive types are an error from Encode. Payload DTOs deliberately
// contain no maps: iteration order would make otherwise-identical
// snapshots byte-unequal (see obs.State's name-sorted slices).
//
// The encoding plan of a type — its exported-field indices, element
// plans and fingerprint — is computed once and cached. Encode refills the
// type's last buffer and hands it to the writer in one Write, so encoding
// a steady stream of checkpoints allocates nothing.
//
// Decode checks the magic, then the version, then the fingerprint, then
// decodes the payload and requires the input to end exactly where it
// does. It rejects truncated input, a bool byte or pointer tag other than
// 0 or 1, a varint that overflows its destination or is not minimal, and
// trailing bytes. A length prefix is bounded by the remaining bytes
// divided by the element's smallest encoding, so a few hostile bytes can
// never make it allocate a huge slice.
//
// # Versioning and compatibility
//
// The fingerprint is an FNV-1a hash of a canonical description of the
// payload type graph: every named type's name, every kind, and every
// exported field's name in declaration order. The payload carries no type
// information of its own, so a checkpoint only decodes into the very DTO
// graph that wrote it: adding, removing, renaming, reordering or
// re-typing a field anywhere under sched.Checkpoint (rack.State,
// server.State, control.State, obs.State, ...) moves the fingerprint, and
// Decode fails with an error naming both fingerprints instead of
// misreading the bytes. Every such DTO change must therefore bump Version
// and regenerate the golden checkpoint,
// testdata/checkpoint-v<Version>.snap, with
//
//	go test ./internal/snap -run TestGoldenCheckpoint -update
//
// The golden files of older versions stay committed, and the tests
// require each to fail with the version error. Decode rejects any
// version other than the one it was built with: snapshots are
// short-lived operational artifacts (crash recovery, migration across a
// restart), not archival data, and refusing to guess beats resuming from
// misread state.
//
// Version history:
//
//   - 1: encoding/gob payload (no golden file; the fuzz corpus keeps one).
//   - 2: this binary codec (testdata/checkpoint-v2.snap).
//   - 3: server.State loses FixedPin and server.MacroStats loses
//     PlainPinned, since fault windows and dark slots macro-step like any
//     other interval (testdata/checkpoint-v3.snap).
//   - 4: server.State loses FreqScale, VoltScale and Throttled with the
//     DVFS extension that set them (testdata/checkpoint-v4.snap).
//
// # Checkpoint instants
//
// A checkpoint is only captured at a decision-step boundary — the top of
// the run loop, before the step's scheduling decisions, where no fan-out
// is in flight and every macro window has fully landed. In the event
// kernel those are exactly the macro-window boundaries: the kernel never
// stops mid-window, so a snapshot never has to represent a half-advanced
// closed-form segment. Resuming from such a boundary is byte-identical to
// the uninterrupted run (see sched.ResumeTraceCfg and the resume
// equivalence suite).
package snap
