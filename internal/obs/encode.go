package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"aanoc/internal/codec"
)

// The canonical form is what json.MarshalIndent(r, "", "  ") produces,
// byte for byte (TestEncodeJSONMatchesStdlib). It is written here rather
// than by encoding/json because that package marshals through a
// sync.Pool of scratch buffers: whether a call finds one grown depends
// on the garbage collector and on which P the goroutine runs, and a
// miss regrows it — 131 KB for a 6x6 report — so the same run allocated
// differently from one process to the next. This encoder appends to the
// caller's buffer and allocates nothing of its own.

// Plan is internal/codec's plan of Report, the one walker of its tree:
// the result store writes a report's binary form with it, and the JSON
// form walks it, naming each field by its json tag.
var Plan = codec.PlanOf(reflect.TypeFor[Report]())

// appendValue appends v, of p's type, at the given nesting depth.
func appendValue(b []byte, p *codec.Plan, v reflect.Value, depth int) ([]byte, error) {
	var err error
	switch p.Kind {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), nil
	case reflect.Int, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case reflect.Float64:
		return appendFloat(b, v.Float())
	case reflect.String:
		return appendString(b, v.String()), nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return appendValue(b, p.Elem, v.Elem(), depth)
	case reflect.Slice:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i := range v.Len() {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendValue(appendIndent(b, depth+1), p.Elem, v.Index(i), depth+1); err != nil {
				return b, err
			}
		}
		if v.Len() > 0 {
			b = appendIndent(b, depth)
		}
		return append(b, ']'), nil
	}
	b = append(b, '{')
	written := false
	for i := range p.Fields {
		f := &p.Fields[i]
		name, omitEmpty := jsonKey(f.Tag)
		fv := v.Field(f.Index)
		if omitEmpty && isEmpty(fv) {
			continue
		}
		if written {
			b = append(b, ',')
		}
		written = true
		b = append(append(append(appendIndent(b, depth+1), '"'), name...), `": `...)
		if b, err = appendValue(b, &f.Plan, fv, depth+1); err != nil {
			return b, err
		}
	}
	if written {
		b = appendIndent(b, depth)
	}
	return append(b, '}'), nil
}

// jsonKey cuts a report field's tag, json:"name" or json:"name,omitempty"
// (every field carries exactly one of the two, and
// TestEncodeJSONMatchesStdlib holds each to encoding/json), into what
// StructTag.Get would give, without Get's parse: that was 40% of an
// encode.
func jsonKey(tag reflect.StructTag) (name string, omitEmpty bool) {
	return strings.CutSuffix(strings.TrimSuffix(strings.TrimPrefix(string(tag), `json:"`), `"`), ",omitempty")
}

func appendIndent(b []byte, depth int) []byte {
	b = append(b, '\n')
	for range depth {
		b = append(b, "  "...)
	}
	return b
}

// isEmpty is encoding/json's omitempty rule for the kinds of the
// report's omitempty fields.
func isEmpty(v reflect.Value) bool {
	if k := v.Kind(); k == reflect.Slice || k == reflect.String {
		return v.Len() == 0
	}
	return v.IsZero()
}

// appendFloat writes f as encoding/json does: ES6 number formatting,
// exponents from 1e21 and below 1e-6, not padded to two digits.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendString quotes s. Printable ASCII needing no escape — every name
// the simulator produces — is copied; anything else (a violation detail
// quoting user input) takes encoding/json's own escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
