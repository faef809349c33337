package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// The canonical form is what json.MarshalIndent(r, "", "  ") produces,
// byte for byte (TestEncodeJSONMatchesStdlib). It is written here rather
// than by encoding/json because that package marshals through a
// sync.Pool of scratch buffers: whether a call finds one grown depends
// on the garbage collector and on which P the goroutine runs, and a
// miss regrows it — 131 KB for a 6x6 report — so the same run allocated
// differently from one process to the next. This encoder appends to the
// caller's buffer and allocates nothing of its own.

// jsonField is one struct field of the report's type tree.
type jsonField struct {
	key       string // `"name": `
	index     int
	omitEmpty bool
}

// jsonFields maps every struct type reachable from Report to its
// fields; filled at init and read-only after.
var jsonFields = map[reflect.Type][]jsonField{}

func init() { planFields(reflect.TypeFor[Report]()) }

// planFields walks the type tree once. A kind appendValue does not
// write (map, array, interface, ...) panics here, at start-up, not in
// the middle of a run.
func planFields(t reflect.Type) {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64, reflect.String:
	case reflect.Pointer, reflect.Slice:
		planFields(t.Elem())
	case reflect.Struct:
		if _, done := jsonFields[t]; done {
			return
		}
		fs := make([]jsonField, t.NumField())
		for i := range fs {
			f := t.Field(i)
			name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" || name == "-" || !f.IsExported() || f.Anonymous {
				panic(fmt.Sprintf("obs: %v.%s: the report encoder wants an exported, named json field", t, f.Name))
			}
			fs[i] = jsonField{key: `"` + name + `": `, index: i, omitEmpty: opts == "omitempty"}
			planFields(f.Type)
		}
		jsonFields[t] = fs
	default:
		panic(fmt.Sprintf("obs: the report encoder does not write %v", t))
	}
}

// appendValue appends v at the given nesting depth.
func appendValue(b []byte, v reflect.Value, depth int) ([]byte, error) {
	var err error
	switch v.Kind() {
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
		return appendValue(b, v.Elem(), depth)
	case reflect.Slice:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i := range v.Len() {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendValue(appendIndent(b, depth+1), v.Index(i), depth+1); err != nil {
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
	for _, f := range jsonFields[v.Type()] {
		fv := v.Field(f.index)
		if f.omitEmpty && isEmpty(fv) {
			continue
		}
		if written {
			b = append(b, ',')
		}
		written = true
		if b, err = appendValue(append(appendIndent(b, depth+1), f.key...), fv, depth+1); err != nil {
			return b, err
		}
	}
	if written {
		b = appendIndent(b, depth)
	}
	return append(b, '}'), nil
}

func appendIndent(b []byte, depth int) []byte {
	b = append(b, '\n')
	for range depth {
		b = append(b, "  "...)
	}
	return b
}

// isEmpty is encoding/json's omitempty rule for the kinds a report has.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
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
