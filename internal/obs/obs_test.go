package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// valid returns a minimal report that passes Validate.
func valid() *Report {
	return &Report{
		Design: "GSS", App: "bluray", Gen: 2, ClockMHz: 333,
		Cycles: 1000, Seed: 7,
		Generated: 10, Completed: 8, Stalled: 3,
		Utilization: 0.5,
		Network: Network{Request: MeshStats{
			BusyCycles: 40,
			Links: []LinkStat{{
				Router: "(0,0)", Port: "east",
				BusyCycles: 40, Grants: 5, Utilization: 0.04,
			}},
		}},
		NIs:    []NI{{Core: "cpu", QueueFlitsHWM: 12, StallCycles: 3}},
		Memory: Memory{Banks: []BankStat{{Bank: 0, Activates: 2, Reads: 4, RowHits: 2}}},
	}
}

func TestWriteJSONParseRoundTrip(t *testing.T) {
	r := valid()
	r.SampleEvery = 100
	r.Samples = []Sample{
		{Cycle: 100, Utilization: 0.4, Outstanding: 3, QueueFlits: 9, MemReady: 1},
		{Cycle: 200, Utilization: 0.6, Outstanding: 2, QueueFlits: 4, MemReady: 0},
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Error("EncodeJSON output not newline-terminated")
	}
	back, err := DecodeJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Design != r.Design || back.Stalled != r.Stalled ||
		len(back.Samples) != 2 || back.Samples[1].QueueFlits != 4 ||
		back.Memory.Banks[0].RowHits != 2 ||
		back.Network.Request.Links[0].Grants != 5 {
		t.Errorf("round trip lost content: %+v", back)
	}
}

func TestOmitEmptySampling(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, valid()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "sampleEvery") || strings.Contains(out, "samples") {
		t.Error("sampling fields serialized despite sampling off")
	}
}

// TestImbalanceBalancedSerialized pins the omitempty bugfix: a
// perfectly balanced (1.0) or idle (0) imbalance must still appear in
// the JSON whenever the channel breakdown does — omitempty on the old
// plain float64 erased exactly those values.
func TestImbalanceBalancedSerialized(t *testing.T) {
	for _, imb := range []float64{0, 1} {
		imb := imb
		r := valid()
		banks := []BankStat{{Bank: 0, Activates: 1, Reads: 1}}
		r.Memory.Channels = []ChannelStat{
			{Channel: 0, Port: "(0,0)", Banks: banks},
			{Channel: 1, Port: "(3,3)", Banks: banks},
		}
		r.Memory.Imbalance = &imb
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"imbalance"`) {
			t.Errorf("imbalance %v dropped from the multi-channel JSON", imb)
		}
		back, err := DecodeJSON(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if back.Memory.Imbalance == nil || *back.Memory.Imbalance != imb {
			t.Errorf("imbalance %v did not round-trip: %v", imb, back.Memory.Imbalance)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Report)
		want string
	}{
		{"no cycles", func(r *Report) { r.Cycles = 0 }, "no cycles"},
		{"missing identity", func(r *Report) { r.Design = "" }, "identity"},
		{"utilization above one", func(r *Report) { r.Utilization = 1.5 }, "outside [0,1]"},
		{"completed exceeds generated", func(r *Report) { r.Completed = r.Generated + 1 }, "exceeds"},
		{"no links", func(r *Report) { r.Network.Request.Links = nil }, "links"},
		{"link busy beyond run", func(r *Report) {
			r.Network.Response.Links = []LinkStat{{Router: "(1,0)", Port: "local", BusyCycles: r.Cycles + 1}}
		}, "busy 1001 cycles of a 1000-cycle run"},
		{"no banks", func(r *Report) { r.Memory.Banks = nil }, "per-bank"},
		{"samples without interval", func(r *Report) {
			r.Samples = []Sample{{Cycle: 10}}
		}, "without a sampling interval"},
		{"sample beyond run", func(r *Report) {
			r.SampleEvery = 10
			r.Samples = []Sample{{Cycle: r.Cycles + 1}}
		}, "outside run"},
		{"negative sampling interval", func(r *Report) {
			r.SampleEvery = -5
		}, "negative sampling interval"},
		{"channels without imbalance", func(r *Report) {
			r.Memory.Channels = []ChannelStat{{Channel: 0}}
		}, "missing imbalance"},
		{"imbalance without channels", func(r *Report) {
			one := 1.0
			r.Memory.Imbalance = &one
		}, "without a channel breakdown"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := valid()
			tc.mut(r)
			err := r.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken report")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := valid().Validate(); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
}

// TestSchemaVersion pins the versioned-schema contract: EncodeJSON
// stamps the current schema, DecodeJSON accepts the legacy zero and the
// stamped current version, and rejects a report from a newer writer.
func TestSchemaVersion(t *testing.T) {
	var buf bytes.Buffer
	r := valid()
	if r.SchemaVersion != 0 {
		t.Fatalf("fixture already versioned: %d", r.SchemaVersion)
	}
	if err := EncodeJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if r.SchemaVersion != Schema {
		t.Errorf("EncodeJSON stamped %d, want %d", r.SchemaVersion, Schema)
	}
	if !strings.Contains(buf.String(), `"schemaVersion": 2`) {
		t.Error("encoded report does not carry schemaVersion")
	}
	back, err := DecodeJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != Schema {
		t.Errorf("decoded schema %d, want %d", back.SchemaVersion, Schema)
	}

	// Legacy sidecar: no version field at all.
	legacy := valid()
	var lbuf bytes.Buffer
	data, _ := json.MarshalIndent(legacy, "", "  ")
	lbuf.Write(data)
	if _, err := DecodeJSON(lbuf.Bytes()); err != nil {
		t.Errorf("legacy (unversioned) report rejected: %v", err)
	}

	// A report from the future must be refused, not misread.
	future := valid()
	future.SchemaVersion = Schema + 1
	fdata, _ := json.Marshal(future)
	if _, err := DecodeJSON(fdata); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Errorf("future-schema report not rejected: %v", err)
	}
	if err := future.Validate(); err == nil {
		t.Error("Validate accepted a future schema version")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSON([]byte("{not json")); err == nil {
		t.Error("DecodeJSON accepted malformed JSON")
	}
	// Structurally valid JSON that no finished run could have produced.
	if _, err := DecodeJSON([]byte(`{"design":"GSS","app":"x","cycles":0}`)); err == nil {
		t.Error("DecodeJSON accepted an empty-run report")
	}
}

// TestSummarizeViolationsCountsDropped: the trailer after the rendered
// lines counts the violations a closing Dropped entry stands for, not
// the entry itself.
func TestSummarizeViolationsCountsDropped(t *testing.T) {
	vs := []Violation{
		{Cycle: 3, Component: "dram", Kind: "tRCD", Detail: "early"},
		{Cycle: 4, Component: "dram", Kind: "tRCD", Detail: "early"},
		Dropped(40),
	}
	if n := TotalViolations(vs); n != 42 {
		t.Fatalf("TotalViolations = %d, want 42", n)
	}
	if got := SummarizeViolations(vs, 1); !strings.HasSuffix(got, "... and 41 more violations\n") {
		t.Errorf("summary with one line:\n%s", got)
	}
	if got := SummarizeViolations(vs, 0); !strings.Contains(got, "violations-dropped: 40 more violations counted but not recorded") {
		t.Errorf("full summary:\n%s", got)
	}
	if n := TotalViolations(vs[:2]); n != 2 {
		t.Errorf("TotalViolations without a dropped entry = %d, want 2", n)
	}
}
