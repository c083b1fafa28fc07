package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// plan is the cached encoding recipe for one Go type: its kind, the
// exported fields of a struct, the element plan of a slice or pointer, and
// the fewest payload bytes a value can encode to, which bounds how many
// elements a length prefix may claim.
type plan struct {
	kind   reflect.Kind
	typ    reflect.Type
	elem   *plan
	fields []fieldPlan
	min    int
}

type fieldPlan struct {
	index int
	plan  *plan
}

// codec is a payload type's plan tree plus the fingerprint of its type
// graph, computed once per type, and the type's last encode buffer: a
// steady stream of checkpoints refills one grown buffer, and an encoder
// that finds it taken by a concurrent one grows its own.
type codec struct {
	root        *plan
	fingerprint uint64
	err         error
	buf         atomic.Pointer[[]byte]
}

var codecs sync.Map // reflect.Type → *codec

func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		c := c.(*codec)
		return c, c.err
	}
	pl := planner{root: t, active: map[reflect.Type]bool{}}
	c := new(codec)
	if c.root, c.err = pl.build(t); c.err == nil {
		h := fnv.New64a()
		h.Write(pl.desc)
		c.fingerprint = h.Sum64()
	}
	actual, _ := codecs.LoadOrStore(t, c)
	c = actual.(*codec)
	return c, c.err
}

// planner builds a plan tree and, alongside it, the canonical description
// the fingerprint hashes: every named type's name, every kind, and every
// exported field's name in declaration order.
type planner struct {
	root   reflect.Type
	desc   []byte
	path   []string
	active map[reflect.Type]bool // types on the path being planned
}

func (pl *planner) fail(format string, args ...any) error {
	return fmt.Errorf("snap: type %v: %s at %s", pl.root,
		fmt.Sprintf(format, args...), strings.Join(append([]string{"value"}, pl.path...), "."))
}

func (pl *planner) build(t reflect.Type) (*plan, error) {
	if pl.active[t] {
		return nil, pl.fail("recursive type %v", t)
	}
	pl.active[t] = true
	defer delete(pl.active, t)
	if t.Name() != "" {
		pl.desc = append(append(pl.desc, t.String()...), '=')
	}
	pl.desc = append(pl.desc, t.Kind().String()...)
	p := &plan{kind: t.Kind(), typ: t}
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint64, reflect.String:
		p.min = 1
	case reflect.Float64:
		p.min = 8
	case reflect.Slice, reflect.Pointer:
		pl.desc = append(pl.desc, '(')
		elem, err := pl.build(t.Elem())
		if err != nil {
			return nil, err
		}
		if t.Kind() == reflect.Slice && elem.min == 0 {
			return nil, pl.fail("slice of %v, whose values encode to no bytes", t.Elem())
		}
		pl.desc = append(pl.desc, ')')
		p.elem, p.min = elem, 1
	case reflect.Struct:
		pl.desc = append(pl.desc, '{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			pl.desc = append(append(pl.desc, f.Name...), ' ')
			pl.path = append(pl.path, f.Name)
			fp, err := pl.build(f.Type)
			pl.path = pl.path[:len(pl.path)-1]
			if err != nil {
				return nil, err
			}
			pl.desc = append(pl.desc, ';')
			p.fields = append(p.fields, fieldPlan{index: i, plan: fp})
			p.min += fp.min
		}
		pl.desc = append(pl.desc, '}')
	default:
		return nil, pl.fail("unsupported kind %v (type %v)", t.Kind(), t)
	}
	return p, nil
}

// indirect follows the pointers around an Encode argument.
func indirect(v any) (reflect.Value, error) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return rv, fmt.Errorf("snap: cannot encode a nil %v", rv.Type())
		}
		rv = rv.Elem()
	}
	if !rv.IsValid() {
		return rv, errors.New("snap: cannot encode nil")
	}
	return rv, nil
}

// floats views a slice whose elements are of kind float64 (float64 itself
// or a named float type such as units.RPM, which share its layout) as a
// []float64, so its elements are read and written without reflection.
func floats(v reflect.Value) []float64 {
	return unsafe.Slice((*float64)(v.UnsafePointer()), v.Len())
}

// encode appends v's payload to b.
func (p *plan) encode(b []byte, v reflect.Value) []byte {
	switch p.kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	case reflect.Slice:
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n))
		if p.elem.kind == reflect.Float64 {
			b = slices.Grow(b, 8*n)
			for _, x := range floats(v) {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
			return b
		}
		for i := 0; i < n; i++ {
			b = p.elem.encode(b, v.Index(i))
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return p.elem.encode(append(b, 1), v.Elem())
	default: // reflect.Struct; build admits no other kind
		for _, f := range p.fields {
			b = f.plan.encode(b, v.Field(f.index))
		}
		return b
	}
}

// decoder consumes a payload; n is its full length, for error offsets.
type decoder struct {
	buf []byte
	n   int
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("at byte %d: %s", d.n-len(d.buf), fmt.Sprintf(format, args...))
}

// flag reads a byte that must be 0 or 1: a bool or a pointer's presence.
func (d *decoder) flag(what string) (bool, error) {
	if len(d.buf) == 0 {
		return false, d.errf("truncated %s", what)
	}
	c := d.buf[0]
	if c > 1 {
		return false, d.errf("%s byte %#02x, want 0 or 1", what, c)
	}
	d.buf = d.buf[1:]
	return c == 1, nil
}

// uvarint reads a minimally encoded unsigned varint, so every value has
// exactly one accepted encoding.
func (d *decoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		return 0, d.errf("truncated varint")
	case n < 0:
		return 0, d.errf("varint overflows 64 bits")
	case n > 1 && d.buf[n-1] == 0:
		return 0, d.errf("non-minimal varint")
	}
	d.buf = d.buf[n:]
	return u, nil
}

// length reads a length prefix and bounds it by what the remaining bytes
// can hold at elemMin bytes per element, so a hostile prefix can never
// make the decoder allocate more than the input could fill.
func (d *decoder) length(elemMin int) (int, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(len(d.buf)/elemMin) {
		return 0, d.errf("length %d exceeds what the %d remaining bytes can hold", u, len(d.buf))
	}
	return int(u), nil
}

// value decodes the payload of p into v, which must be settable.
func (d *decoder) value(p *plan, v reflect.Value) error {
	switch p.kind {
	case reflect.Bool:
		x, err := d.flag("bool")
		if err != nil {
			return err
		}
		v.SetBool(x)
	case reflect.Int, reflect.Int64:
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		x := int64(u >> 1) // zigzag, as binary.AppendVarint writes it
		if u&1 != 0 {
			x = ^x
		}
		if v.OverflowInt(x) {
			return d.errf("%d overflows %v", x, p.typ)
		}
		v.SetInt(x)
	case reflect.Uint64:
		u, err := d.uvarint()
		if err != nil {
			return err
		}
		v.SetUint(u)
	case reflect.Float64:
		if len(d.buf) < 8 {
			return d.errf("truncated float64")
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.buf)))
		d.buf = d.buf[8:]
	case reflect.String:
		n, err := d.length(1)
		if err != nil {
			return err
		}
		v.SetString(string(d.buf[:n]))
		d.buf = d.buf[n:]
	case reflect.Slice:
		n, err := d.length(p.elem.min)
		if err != nil {
			return err
		}
		if n == 0 {
			v.SetZero()
			return nil
		}
		s := reflect.MakeSlice(p.typ, n, n)
		if p.elem.kind == reflect.Float64 {
			fs := floats(s)
			for i := range fs {
				fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[8*i:]))
			}
			d.buf = d.buf[8*n:]
		} else {
			for i := 0; i < n; i++ {
				if err := d.value(p.elem, s.Index(i)); err != nil {
					return err
				}
			}
		}
		v.Set(s)
	case reflect.Pointer:
		present, err := d.flag("pointer tag")
		if err != nil {
			return err
		}
		if !present {
			v.SetZero()
			return nil
		}
		e := reflect.New(p.typ.Elem())
		if err := d.value(p.elem, e.Elem()); err != nil {
			return err
		}
		v.Set(e)
	default: // reflect.Struct
		for _, f := range p.fields {
			if err := d.value(f.plan, v.Field(f.index)); err != nil {
				return err
			}
		}
	}
	return nil
}
