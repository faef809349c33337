package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// Values on every branch of the float and string writers: the exponent
// cutoffs, negative zero, the e-09 clean-up, every escape class.
var (
	edgeFloats  = []float64{0, math.Copysign(0, -1), 1, -2.5, 0.04, 1e-6, 9.99e-7, 1.5e-9, 1e-10, 1e20, 1e21, 1.7e300, 5e-324, math.MaxFloat64, 1.0 / 3}
	edgeStrings = []string{"", "cpu", "(3,2)", "GSS+SAGM", `q"uo\te`, "<a&b>", "tab\tnl\n", "\x00\x1f\x7f", "é∑", "  ", "bad\xffutf8", "~ {}[]:,"}
)

// fill sets every field below v from rng: edge and random scalars, nil,
// empty and populated slices, nil and set pointers.
func fill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.IntN(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{0, 1, -1, math.MaxInt64, math.MinInt64, rng.Int64N(1 << 40)}[rng.IntN(6)])
	case reflect.Uint64:
		v.SetUint([]uint64{0, math.MaxUint64, rng.Uint64()}[rng.IntN(3)])
	case reflect.Float64:
		f := edgeFloats[rng.IntN(len(edgeFloats))]
		if rng.IntN(2) == 0 {
			f = math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = rng.Float64()
			}
		}
		v.SetFloat(f)
	case reflect.String:
		v.SetString(edgeStrings[rng.IntN(len(edgeStrings))])
	case reflect.Pointer:
		if rng.IntN(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fill(rng, v.Elem())
		}
	case reflect.Slice:
		if n := rng.IntN(4); n > 0 { // 1 leaves it nil, 2 makes it empty
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
		}
		for i := range v.Len() {
			fill(rng, v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			fill(rng, v.Field(i))
		}
	}
}

// TestEncodeJSONMatchesStdlib holds the hand-written encoder to the
// bytes encoding/json produces, on reports filled at random.
func TestEncodeJSONMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	var buf bytes.Buffer
	for i := 0; i < 300; i++ {
		r := new(Report)
		if i > 0 { // the first is the zero report
			fill(rng, reflect.ValueOf(r).Elem())
		}
		buf.Reset()
		if err := EncodeJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("report %d: EncodeJSON differs from json.MarshalIndent:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestEncodeJSONAllocatesNothing is why the encoder exists: into a
// buffer that has the room, encoding allocates nothing, every call.
func TestEncodeJSONAllocatesNothing(t *testing.T) {
	r := valid()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		buf.Reset()
		_ = EncodeJSON(&buf, r)
	}); n != 0 {
		t.Errorf("EncodeJSON into a warm buffer allocates %v times a call, want 0", n)
	}
}

// TestEncodeJSONRejectsNaN: as with encoding/json, a non-finite float
// is an error and nothing is written.
func TestEncodeJSONRejectsNaN(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := valid()
		r.Network.Request.Links[0].Utilization = f
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, r); err == nil || buf.Len() != 0 {
			t.Errorf("%v: err %v with %d bytes written, want an error and none", f, err, buf.Len())
		}
	}
}
