// Package codec is the binary form of the values the result store keeps:
// a store entry's payload (one obs.Report) and the bytes a sweep
// fingerprint hashes (one resolved system.Config) are both written by a
// Plan, built once from the type.
//
// A bool is one byte, 0 or 1; an int or int64 a zig-zag varint, a
// uint64 a uvarint; a float64 8 little-endian IEEE bytes; a string a
// uvarint length and the bytes; a pointer 0 for nil or 1 and the value;
// a slice uvarint 0 for nil or n+1 and n elements (nil and empty stay
// apart, as JSON's null and [] kept them); a struct its fields in
// declaration order, less any tagged `codec:"-"`. Every length is
// prefixed, so the form decodes and two values write the same bytes only
// if they are equal. Nothing names a field: a change to a type tree
// changes what its bytes mean.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Plan writes and reads one type. Another form may walk the same tree
// by its exported fields (obs writes a report's JSON from its plan).
type Plan struct {
	Kind   reflect.Kind
	typ    reflect.Type
	Elem   *Plan   // pointer target or slice element
	Fields []Field // struct fields written, in declaration order
	min    int     // fewest bytes a value takes: bounds a slice's length before it is allocated
}

// Field is one struct field a plan writes.
type Field struct {
	Plan
	Index int               // its place in the struct, which a skipped field before it shifts
	Tag   reflect.StructTag // its tag, for a form that names fields
}

// PlanOf panics on a kind the form does not write or an unexported
// field: at start-up, never in the middle of a run.
func PlanOf(t reflect.Type) *Plan {
	p := &Plan{Kind: t.Kind(), typ: t, min: 1}
	switch p.Kind {
	case reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint64, reflect.String:
	case reflect.Float64:
		p.min = 8
	case reflect.Pointer, reflect.Slice:
		p.Elem = PlanOf(t.Elem())
	case reflect.Struct:
		p.min = 0
		for i := range t.NumField() {
			f := t.Field(i)
			if f.Tag.Get("codec") == "-" {
				continue
			}
			if !f.IsExported() {
				panic(fmt.Sprintf("codec: %v.%s: the form wants exported fields", t, f.Name))
			}
			p.Fields = append(p.Fields, Field{*PlanOf(f.Type), i, f.Tag})
			p.min += p.Fields[len(p.Fields)-1].min
		}
		p.min = max(p.min, 1) // an empty struct still counts a byte against a forged length
	default:
		panic(fmt.Sprintf("codec: the form does not write %v", t))
	}
	return p
}

// Size returns the number of bytes v (of the plan's type) takes, and an
// error if it holds a non-finite float, the one value the form has no
// bytes for.
func (p *Plan) Size(v reflect.Value) (int, error) {
	e := encoder{}
	p.encode(&e, v)
	return e.n, e.err
}

// Append appends v's bytes to b, with the error Size would give; a
// non-finite float is written as its bits all the same.
func (p *Plan) Append(b []byte, v reflect.Value) ([]byte, error) {
	e := encoder{buf: b, fill: true}
	p.encode(&e, v)
	return e.buf, e.err
}

// encoder counts a value's bytes and, with fill set, appends them to buf.
type encoder struct {
	buf  []byte
	n    int
	fill bool
	err  error
}

func (e *encoder) put(b []byte) {
	if e.n += len(b); e.fill {
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

func (p *Plan) encode(e *encoder, v reflect.Value) {
	var s [binary.MaxVarintLen64]byte
	switch p.Kind {
	case reflect.Bool:
		e.flag(v.Bool())
	case reflect.Pointer:
		if e.flag(!v.IsNil()) {
			p.Elem.encode(e, v.Elem())
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
		if e.n += v.Len(); e.fill {
			e.buf = append(e.buf, v.String()...)
		}
	case reflect.Slice:
		if v.IsNil() {
			e.flag(false)
			return
		}
		e.put(s[:binary.PutUvarint(s[:], uint64(v.Len())+1)])
		for i := range v.Len() {
			p.Elem.encode(e, v.Index(i))
		}
	case reflect.Struct:
		for i := range p.Fields {
			p.Fields[i].encode(e, v.Field(p.Fields[i].Index))
		}
	}
}

// Decode fills v (settable, of the plan's type) from b in a single pass,
// whatever v held: a nil pointer or slice in b comes out nil, and a slice
// is built fresh, never in the old one's backing array. The fields the
// plan skips are left as they are. A flag byte that is
// not 0 or 1, a non-finite float, a length prefix larger than the bytes
// left (refused before anything is allocated) or a trailing byte fails
// it. Strings are cut from one copy of b, so a decode allocates per
// slice and pointer, not per string, and nothing it fills points into b.
func (p *Plan) Decode(b []byte, v reflect.Value) error {
	r := reader{b: b, str: string(b)}
	if p.decode(&r, v); r.off != len(b) {
		r.fail("trailing bytes")
	}
	return r.err
}

// reader is one value being decoded. Its first error sticks and moves
// it to the end, where every read returns zero, so a decode checks once.
type reader struct {
	b   []byte
	str string
	off int
	err error
}

func (p *Plan) decode(r *reader, v reflect.Value) {
	switch p.Kind {
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
		if !r.flag() {
			v.SetZero()
			return
		}
		v.Set(reflect.New(p.typ.Elem()))
		p.Elem.decode(r, v.Elem())
	case reflect.Slice:
		u := r.uvarint()
		if u == 0 {
			v.SetZero()
			return
		}
		n := r.count(u-1, p.Elem.min)
		if n == 0 { // empty, not nil: Grow(0) would leave it nil
			v.Set(reflect.MakeSlice(p.typ, 0, 0))
			return
		}
		// Grow fills the field in place: one allocation, where MakeSlice
		// would add a second for the slice header. From nil, so the old
		// slice's backing array is never written.
		v.SetZero()
		v.Grow(n)
		v.SetLen(n)
		for i := range n {
			p.Elem.decode(r, v.Index(i))
		}
	case reflect.Struct:
		for i := range p.Fields {
			p.Fields[i].decode(r, v.Field(p.Fields[i].Index))
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
