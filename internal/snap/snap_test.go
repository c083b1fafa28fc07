package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/rack"
	"repro/internal/units"
)

type payload struct {
	A int
	B []float64
	C string
}

type inner struct {
	N   uint64
	RPM []units.RPM
}

// kinds exercises every supported kind, including the named-float slice
// fast path, nested pointers and slices, and an unexported field that the
// codec skips.
type kinds struct {
	T, F    bool
	I       int
	I64     int64
	U       uint64
	X       float64
	S       string
	Fs      []float64
	Nested  [][]float64
	In      inner
	Ins     []inner
	P, Nil  *inner
	PP      **int
	Empty   []int
	private int
}

func TestRoundTrip(t *testing.T) {
	seven := 7
	ps := &seven
	in := kinds{
		T: true, I: math.MinInt, I64: -1, U: math.MaxUint64, X: math.Copysign(0, -1), S: "héllo",
		Fs: []float64{
			1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1),
			math.Float64frombits(0x7ff4000000000123), // signalling NaN with a payload
			math.SmallestNonzeroFloat64, math.MaxFloat64,
		},
		Nested:  [][]float64{{1}, nil, {2, 3}},
		In:      inner{N: 1 << 40, RPM: []units.RPM{2400, 3000}},
		Ins:     []inner{{N: 1}, {RPM: []units.RPM{1}}},
		P:       &inner{N: 9},
		PP:      &ps,
		private: 5,
	}
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var out kinds
	if err := Decode(bytes.NewReader(buf.Bytes()), &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.private != 0 {
		t.Fatalf("unexported field decoded as %d, want it skipped", out.private)
	}
	if math.Float64bits(out.X) != math.Float64bits(in.X) {
		t.Fatalf("X: bits %x != %x", math.Float64bits(out.X), math.Float64bits(in.X))
	}
	for i := range in.Fs {
		if math.Float64bits(out.Fs[i]) != math.Float64bits(in.Fs[i]) {
			t.Fatalf("Fs[%d]: bits %x != %x (floats must round-trip bit-exactly)",
				i, math.Float64bits(out.Fs[i]), math.Float64bits(in.Fs[i]))
		}
	}
	in.private = 0
	in.Fs, out.Fs = nil, nil // NaN != NaN; compared bitwise above
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
	// A pointer argument encodes the value it points to.
	var viaPtr bytes.Buffer
	if err := Encode(&viaPtr, &in); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := Encode(&again, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaPtr.Bytes(), again.Bytes()) {
		t.Fatal("Encode(&v) and Encode(decoded v) differ")
	}
}

func TestFileRoundTripAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.snap")
	if err := EncodeFile(path, payload{A: 1}); err != nil {
		t.Fatalf("EncodeFile: %v", err)
	}
	// Overwrite: the previous file must be replaced wholesale.
	if err := EncodeFile(path, payload{A: 2}); err != nil {
		t.Fatalf("EncodeFile overwrite: %v", err)
	}
	var out payload
	if err := DecodeFile(path, &out); err != nil {
		t.Fatalf("DecodeFile: %v", err)
	}
	if out.A != 2 {
		t.Fatalf("got A=%d, want the overwritten value 2", out.A)
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temporary file %s left behind", e.Name())
		}
	}
}

// TestEncodeConcurrent: encoders of one type share its cached buffer, so
// concurrent calls must still each write exactly their own value. Run
// under -race.
func TestEncodeConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in := payload{A: g*1000 + i, B: make([]float64, g+i), C: strings.Repeat("x", i)}
				var buf bytes.Buffer
				if err := Encode(&buf, in); err != nil {
					t.Error(err)
					return
				}
				var out payload
				if err := Decode(&buf, &out); err != nil || out.A != in.A || len(out.B) != len(in.B) || out.C != in.C {
					t.Errorf("goroutine %d: got %+v (%v), want %+v", g, out, err, in)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// frame builds a snapshot of v's type around a hand-written payload.
func frame(t *testing.T, v any, body ...byte) []byte {
	t.Helper()
	c, err := codecFor(reflect.TypeOf(v))
	if err != nil {
		t.Fatal(err)
	}
	b := append(magic[:len(magic):len(magic)], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b[len(magic):], Version)
	return append(binary.BigEndian.AppendUint64(b, c.fingerprint), body...)
}

func TestDecodeRejectsMalformed(t *testing.T) {
	var good bytes.Buffer
	if err := Encode(&good, payload{A: 3, B: []float64{1, 2}, C: "xyz"}); err != nil {
		t.Fatal(err)
	}
	g := good.Bytes()
	type flag struct{ B bool }
	type ptr struct{ P *int }
	type num struct{ A int }
	type slots struct{ S []rack.SlotState }
	cases := map[string]struct {
		data []byte
		into any
		want string
	}{
		"empty":          {nil, &payload{}, "read header"},
		"short header":   {g[:5], &payload{}, "read header"},
		"bad magic":      {append([]byte("NOTASNAP"), g[8:]...), &payload{}, "bad magic"},
		"future version": {append(append([]byte{}, g[:8]...), 0, 0, 0, 99), &payload{}, fmt.Sprintf("snapshot version 99, this build reads %d", Version)},
		"v1 gob header":  {[]byte("REPROSNP\x00\x00\x00\x01\x1f\xff\x81\x03\x01\x01\x07payload"), &payload{}, fmt.Sprintf("snapshot version 1, this build reads %d", Version)},
		"no fingerprint": {g[:verEnd+3], &payload{}, "read header"},
		"header only":    {g[:headerLen], &payload{}, "truncated"},
		"truncated":      {g[:len(g)-1], &payload{}, "exceeds"},
		"trailing bytes": {append(append([]byte{}, g...), 0), &payload{}, "1 trailing bytes"},
		"wrong type":     {g, &struct{ A []string }{}, "fingerprint"},
		"bad bool byte":  {frame(t, flag{}, 2), &flag{}, "bool byte 0x02"},
		"bad ptr tag":    {frame(t, ptr{}, 7), &ptr{}, "pointer tag byte 0x07"},
		"int overflow": {
			frame(t, num{}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), &num{}, "overflows 64 bits",
		},
		"non-minimal varint": {frame(t, num{}, 0x82, 0x00), &num{}, "non-minimal"},
		"oversized length": {
			frame(t, slots{}, binary.AppendUvarint(nil, 1<<40)...), &slots{}, "exceeds what the 0 remaining bytes",
		},
		"oversized string": {frame(t, payload{}, 0, 0, 5, 'a'), &payload{}, "exceeds"},
	}
	for name, c := range cases {
		err := Decode(bytes.NewReader(c.data), c.into)
		if err == nil {
			t.Errorf("%s: Decode accepted malformed input", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, c.want)
		}
	}
	// Every strict prefix of a valid snapshot is malformed.
	for n := 0; n < len(g); n++ {
		var out payload
		if err := Decode(bytes.NewReader(g[:n]), &out); err == nil {
			t.Errorf("prefix of %d/%d bytes accepted", n, len(g))
		}
	}
}

// TestDecodeTypeMismatchErrors pins the error a DTO change produces: it
// names both fingerprints, so the reader can tell the two type graphs
// apart.
func TestDecodeTypeMismatchErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, payload{A: 3, C: "s"}); err != nil {
		t.Fatal(err)
	}
	var wrong struct{ A []string }
	err := Decode(bytes.NewReader(buf.Bytes()), &wrong)
	if err == nil {
		t.Fatal("Decode into a mismatched type succeeded")
	}
	for _, v := range []any{payload{}, wrong} {
		c, cerr := codecFor(reflect.TypeOf(v))
		if cerr != nil {
			t.Fatal(cerr)
		}
		if fp := fmt.Sprintf("%016x", c.fingerprint); !strings.Contains(err.Error(), fp) {
			t.Errorf("error %q does not name the %T fingerprint %s", err, v, fp)
		}
	}
}

// TestHostileLengthDoesNotAllocate: a length prefix claiming a huge slice
// must be refused before anything is allocated for it.
func TestHostileLengthDoesNotAllocate(t *testing.T) {
	type slots struct{ S []rack.SlotState }
	for _, n := range []uint64{1 << 40, 1 << 20, 1000} {
		data := frame(t, slots{}, binary.AppendUvarint(nil, n)...)
		data = append(data, make([]byte, 64)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var out slots
		if err := Decode(bytes.NewReader(data), &out); err == nil {
			t.Fatalf("length %d accepted", n)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
			t.Fatalf("length %d: decoding allocated %d bytes", n, d)
		}
	}
}

func TestEncodeRejectsUnsupportedKinds(t *testing.T) {
	type list struct{ Next *list }
	type empty struct{}
	cases := map[string]any{
		"map":            struct{ M map[string]int }{},
		"interface":      struct{ I any }{},
		"array":          struct{ A [2]float64 }{},
		"chan":           struct{ C chan int }{},
		"func":           struct{ F func() }{},
		"float32":        struct{ F float32 }{},
		"recursive":      list{},
		"zero-size elem": struct{ E []empty }{},
		"nil":            nil,
		"nil pointer":    (*payload)(nil),
	}
	for name, v := range cases {
		if err := Encode(&bytes.Buffer{}, v); err == nil {
			t.Errorf("%s: Encode accepted an unsupported value", name)
		}
	}
	if err := Decode(bytes.NewReader(nil), payload{}); err == nil {
		t.Error("Decode into a non-pointer succeeded")
	}
}

// TestFingerprintCoversTypeGraph: renaming, reordering or re-kinding a
// field, or renaming a type, moves the fingerprint.
func TestFingerprintCoversTypeGraph(t *testing.T) {
	type celsius float64
	type kelvin float64
	variants := []any{
		struct {
			X int
			Y float64
		}{},
		struct {
			Y float64
			X int
		}{},
		struct {
			X int
			Z float64
		}{},
		struct {
			X int64
			Y float64
		}{},
		struct {
			X int
			Y celsius
		}{},
		struct {
			X int
			Y kelvin
		}{},
		struct {
			X int
			Y []float64
		}{},
		struct {
			X int
			Y *float64
		}{},
	}
	seen := map[uint64]int{}
	for i, v := range variants {
		c, err := codecFor(reflect.TypeOf(v))
		if err != nil {
			t.Fatal(err)
		}
		if j, ok := seen[c.fingerprint]; ok {
			t.Errorf("variants %d and %d share fingerprint %016x", j, i, c.fingerprint)
		}
		seen[c.fingerprint] = i
	}
}
