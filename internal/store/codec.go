package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"aanoc/internal/system"
)

// An entry's payload is one system.Result, written and read by a plan
// built once, at init, from the type: a bool is one byte, 0 or 1; an int
// or int64 a zig-zag varint, a uint64 a uvarint; a float64 8
// little-endian IEEE bytes, finite only; a string a uvarint length and
// the bytes; a pointer 0 for nil or 1 and the value; a slice uvarint 0
// for nil or n+1 and n elements (nil and empty stay apart, as JSON's
// null and [] kept them); a struct its fields in declaration order.
// Nothing names a field, so a change to the type tree must bump
// formatVersion (TestPayloadShapePinned fails until it does).
type plan struct {
	kind   reflect.Kind
	typ    reflect.Type
	elem   *plan  // pointer target or slice element
	fields []plan // struct fields, in declaration order
	min    int    // fewest bytes a value takes: bounds a slice's length before it is allocated
}

var resultPlan = planOf(reflect.TypeFor[system.Result]())

// planOf panics on a kind the form does not write or an unexported
// field: at start-up, never in the middle of a run.
func planOf(t reflect.Type) plan {
	p := plan{kind: t.Kind(), typ: t, min: 1}
	switch p.kind {
	case reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint64, reflect.String:
	case reflect.Float64:
		p.min = 8
	case reflect.Pointer, reflect.Slice:
		elem := planOf(t.Elem())
		p.elem = &elem
	case reflect.Struct:
		p.fields, p.min = make([]plan, t.NumField()), 0
		for i := range p.fields {
			if f := t.Field(i); !f.IsExported() {
				panic(fmt.Sprintf("store: %v.%s: the entry codec wants exported fields", t, f.Name))
			}
			p.fields[i] = planOf(t.Field(i).Type)
			p.min += p.fields[i].min
		}
		p.min = max(p.min, 1) // an empty struct still counts a byte against a forged length
	default:
		panic(fmt.Sprintf("store: the entry codec does not write %v", t))
	}
	return p
}

// encoder counts a value's bytes and, once buf is non-nil, appends them:
// Put runs it twice, to size the entry and then to fill it. err is set
// by a non-finite float, the one value the form has no bytes for.
type encoder struct {
	buf []byte
	n   int
	err error
}

func (e *encoder) put(b []byte) {
	if e.n += len(b); e.buf != nil {
		e.buf = append(e.buf, b...)
	}
}

// flag writes set as one byte, 0 or 1, and returns it.
func (e *encoder) flag(set bool) bool {
	b := [1]byte{}
	if set {
		b[0] = 1
	}
	e.put(b[:])
	return set
}

func (p *plan) encode(e *encoder, v reflect.Value) {
	var s [binary.MaxVarintLen64]byte
	switch p.kind {
	case reflect.Bool:
		e.flag(v.Bool())
	case reflect.Pointer:
		if e.flag(!v.IsNil()) {
			p.elem.encode(e, v.Elem())
		}
	case reflect.Int, reflect.Int64:
		e.put(s[:binary.PutVarint(s[:], v.Int())])
	case reflect.Uint64:
		e.put(s[:binary.PutUvarint(s[:], v.Uint())])
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			e.err = fmt.Errorf("unsupported value: %v", f)
		}
		e.put(binary.LittleEndian.AppendUint64(s[:0], math.Float64bits(v.Float())))
	case reflect.String:
		e.put(s[:binary.PutUvarint(s[:], uint64(v.Len()))])
		if e.n += v.Len(); e.buf != nil {
			e.buf = append(e.buf, v.String()...)
		}
	case reflect.Slice:
		if v.IsNil() {
			e.flag(false)
			return
		}
		e.put(s[:binary.PutUvarint(s[:], uint64(v.Len())+1)])
		for i := range v.Len() {
			p.elem.encode(e, v.Index(i))
		}
	case reflect.Struct:
		for i := range p.fields {
			p.fields[i].encode(e, v.Field(i))
		}
	}
}

// reader is one payload being decoded. Its first error sticks and moves
// it to the end, where every read returns zero, so a decode checks once.
// Strings are cut from str, one copy of the payload: a decode allocates
// per slice and pointer, not per string.
type reader struct {
	b   []byte
	str string
	off int
	err error
}

// decodePayload fills res in a single pass. A flag byte that is not 0 or
// 1, a non-finite float, a length prefix larger than the bytes left
// (refused before anything is allocated) or a trailing byte fails it.
func decodePayload(payload []byte, res *system.Result) error {
	r := reader{b: payload, str: string(payload)}
	if resultPlan.decode(&r, reflect.ValueOf(res).Elem()); r.off != len(payload) {
		r.fail("trailing bytes")
	}
	return r.err
}

func (p *plan) decode(r *reader, v reflect.Value) {
	switch p.kind {
	case reflect.Bool:
		v.SetBool(r.flag())
	case reflect.Int, reflect.Int64:
		x, n := binary.Varint(r.b[r.off:])
		if n <= 0 || v.OverflowInt(x) {
			r.fail("bad varint")
			return
		}
		r.off += n
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(r.uvarint())
	case reflect.Float64:
		if r.count(1, 8) == 0 { // fewer than 8 bytes left
			return
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			r.fail("non-finite float")
			return
		}
		r.off += 8
		v.SetFloat(f)
	case reflect.String:
		n := r.count(r.uvarint(), 1)
		v.SetString(r.str[r.off : r.off+n])
		r.off += n
	case reflect.Pointer:
		if r.flag() {
			v.Set(reflect.New(p.typ.Elem()))
			p.elem.decode(r, v.Elem())
		}
	case reflect.Slice:
		if u := r.uvarint(); u > 0 {
			n := r.count(u-1, p.elem.min)
			v.Set(reflect.MakeSlice(p.typ, n, n))
			for i := range n {
				p.elem.decode(r, v.Index(i))
			}
		}
	case reflect.Struct:
		for i := range p.fields {
			p.fields[i].decode(r, v.Field(i))
		}
	}
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at byte %d", what, r.off)
	}
	r.off = len(r.b)
}

func (r *reader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return x
}

func (r *reader) flag() bool {
	if r.off == len(r.b) || r.b[r.off] > 1 {
		r.fail("bad flag byte")
		return false
	}
	r.off++
	return r.b[r.off-1] == 1
}

// count refuses a length prefix of u items of at least each bytes that
// the bytes left cannot hold: what keeps a forged prefix from allocating.
func (r *reader) count(u uint64, each int) int {
	if u > uint64((len(r.b)-r.off)/each) {
		r.fail(fmt.Sprintf("length %d past the bytes left", u))
		return 0
	}
	return int(u)
}
