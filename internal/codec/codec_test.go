package codec

import (
	"reflect"
	"testing"
)

// TestPlanRefusesWhatItCannotWrite: a kind the form has no encoding
// for, or an unexported field, panics when the plan is built — at
// start-up for the types the store and the sweep key write — never in
// the middle of a run.
func TestPlanRefusesWhatItCannotWrite(t *testing.T) {
	for name, typ := range map[string]reflect.Type{
		"map":        reflect.TypeFor[struct{ M map[string]int }](),
		"unexported": reflect.TypeFor[struct{ n int }](),
		"array":      reflect.TypeFor[struct{ A [2]int }](),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: PlanOf did not panic", name)
				}
			}()
			PlanOf(typ)
		}()
	}
}

// TestSkippedFieldsAreNotWritten: a field tagged `codec:"-"` takes no
// bytes, may be of a kind the form cannot write, and is left as it is by
// a decode; the fields after it keep their places.
func TestSkippedFieldsAreNotWritten(t *testing.T) {
	type withSkip struct {
		A    int
		Skip map[string]int `codec:"-"`
		B    string
	}
	type without struct {
		A int
		B string
	}
	p := PlanOf(reflect.TypeFor[withSkip]())
	in := withSkip{A: -7, Skip: map[string]int{"x": 1}, B: "b"}
	got, err := p.Append(nil, reflect.ValueOf(in))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := PlanOf(reflect.TypeFor[without]()).Append(nil, reflect.ValueOf(without{A: -7, B: "b"}))
	if string(got) != string(want) {
		t.Fatalf("bytes % x, want % x", got, want)
	}
	out := withSkip{Skip: map[string]int{"kept": 2}}
	if err := p.Decode(got, reflect.ValueOf(&out).Elem()); err != nil {
		t.Fatal(err)
	}
	if out.A != -7 || out.B != "b" || out.Skip["kept"] != 2 || len(out.Skip) != 1 {
		t.Fatalf("decoded %+v", out)
	}
}
