package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"aanoc/internal/dram"
	"aanoc/internal/system"
	"aanoc/internal/trace"
	"aanoc/internal/traffic"
)

// Fingerprint returns a canonical hash of the fully resolved
// configuration, and whether the configuration is cacheable at all.
// Two configs that resolve to the same simulation — e.g. one spelling a
// default explicitly (Cycles: 200000) and one leaving it zero — share a
// fingerprint, so a grid that revisits a point simulates it once.
//
// A config carrying a trace-capture Writer is not cacheable: capture is
// a side effect that must happen per run (and the writer is identity,
// not value). Neither is one with an injected device fault: its results
// are wrong on purpose and must never be persisted or served in place of
// a clean run's. NoIdleSkip is left out of the hash: results are
// identical with it on or off, so it must not split cache entries.
// Everything else in system.Config is pure input.
//
// The hashed bytes are pinned: they are the ones the fmt-based
// reference in fingerprint_test.go prints (%+v for the model's
// structs), which every populated store is keyed on, so a change here
// that moves one byte turns every store cold. They are appended by hand
// into a small buffer that is streamed into the hash after each stream,
// each replay record and at the end; the whole key is never held at once.
func Fingerprint(cfg system.Config) (string, bool) {
	if cfg.Trace != nil || cfg.Fault != dram.FaultNone {
		return "", false
	}
	c := cfg.Resolved()
	h := sha256.New()
	b := make([]byte, 0, 512)
	flush := func() {
		h.Write(b)
		b = b[:0]
	}
	// The application model, in declaration order. Port 0 is written
	// twice, after "mem" and again in the port list: the bytes every
	// stored entry is keyed on. (A model with no ports hashes without
	// panicking; it fails Validate, so nothing is stored under it.)
	b = append(append(b, "app="...), c.App.Name...)
	b = appendInt(append(b, '/'), c.App.Width)
	b = appendInt(append(b, 'x'), c.App.Height)
	b = append(b, "/mem"...)
	for i, p := range c.App.Ports() {
		if i == 0 {
			b = append(p.Append(b), '|')
		}
		b = append(p.Append(append(b, "port="...)), '|')
	}
	b = appendInt(append(b, "chan="...), c.Channels)
	b = append(appendInt(append(b, " scheme="...), int(c.Scheme)), '|')
	for gen := dram.DDR1; gen <= dram.LPDDR3; gen++ {
		b = appendInt(append(b, "clk"...), int(gen))
		b = append(appendInt(append(b, '='), c.App.Clocks.At(gen)), '|')
	}
	for _, core := range c.App.Cores {
		b = append(append(b, "core="...), core.Name...)
		b = append(core.Pos.Append(append(b, '@')), '|')
		for i := range core.Streams {
			b = append(appendStream(append(b, "stream="...), &core.Streams[i]), '|')
			flush()
		}
	}
	// SampleEvery and Checked are part of the key although they never
	// perturb the simulation: a sampled run's Result carries the time
	// series and a checked run's report carries the Checked/Violations
	// fields, so neither may be served from (or into) a differently
	// configured point's cache entry.
	b = appendInt(append(b, "gen="...), int(c.Gen))
	b = appendInt(append(b, " clk="...), c.ClockMHz)
	b = appendInt(append(b, " design="...), int(c.Design))
	b = appendInt(append(b, " sched="...), int(c.Scheduler))
	b = appendInt(append(b, " pct="...), c.PCT)
	b = appendInt(append(b, " gssr="...), c.GSSRouters)
	b = strconv.AppendBool(append(b, " pd="...), c.PriorityDemand)
	b = strconv.AppendInt(append(b, " cyc="...), c.Cycles, 10)
	b = strconv.AppendInt(append(b, " warm="...), c.Warmup, 10)
	b = strconv.AppendUint(append(b, " seed="...), c.Seed, 10)
	// buf, cap and pipe are system's fixed platform sizes, still in the
	// key so every stored entry stays warm.
	b = append(b, " buf=8"...)
	b = appendInt(append(b, " vc="...), c.VirtualChannels)
	b = strconv.AppendBool(append(b, " adapt="...), c.AdaptiveRouting)
	b = append(b, " cap=64 pipe=8"...)
	b = appendInt(append(b, " split="...), c.SplitGranularity)
	b = strconv.AppendBool(append(b, " tag="...), c.TagEveryRequest)
	b = strconv.AppendInt(append(b, " sample="...), c.SampleEvery, 10)
	b = strconv.AppendBool(append(b, " chk="...), c.Checked)
	b = append(appendInt(append(b, " subs="...), c.Subarrays), '|')
	// The spec hash ties a spec-driven run to its workload content; the
	// workload-stats flag shapes the report (like SampleEvery/Checked)
	// without perturbing the simulation, so it must split cache entries
	// the same way.
	b = append(append(b, "spec="...), c.SpecHash...)
	b = append(strconv.AppendBool(append(b, " wl="...), c.WorkloadStats), '|')
	if c.PagePolicy != nil {
		b = append(appendInt(append(b, "page="...), int(*c.PagePolicy)), '|')
	}
	b = append(appendInt(append(b, "replay="...), len(c.Replay)), '|')
	for i := range c.Replay {
		b = append(appendRecord(append(b, "rec="...), &c.Replay[i]), '|')
		flush()
	}
	flush()
	var sum [sha256.Size]byte
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], h.Sum(sum[:0]))
	return string(text[:]), true
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendStream writes s as %+v prints it: the class by its String, the
// pattern as a number, floats in the shortest 'g' form.
func appendStream(b []byte, s *traffic.Stream) []byte {
	b = append(append(b, "{Name:"...), s.Name...)
	b = append(append(b, " Class:"...), s.Class.String()...)
	b = strconv.AppendFloat(append(b, " ReadFrac:"...), s.ReadFrac, 'g', -1, 64)
	b = append(b, " Beats:["...)
	for i, beats := range s.Beats {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendInt(b, beats)
	}
	b = strconv.AppendFloat(append(b, "] LoadFrac:"...), s.LoadFrac, 'g', -1, 64)
	b = strconv.AppendBool(append(b, " ClosedLoop:"...), s.ClosedLoop)
	b = strconv.AppendInt(append(b, " ThinkTime:"...), s.ThinkTime, 10)
	b = appendInt(append(b, " MaxOutstanding:"...), s.MaxOutstanding)
	b = appendInt(append(b, " Pattern:"...), int(s.Pattern))
	b = appendInt(append(b, " BankOffset:"...), s.BankOffset)
	b = appendInt(append(b, " RowBase:"...), s.RowBase)
	return append(appendInt(append(b, " RowRange:"...), s.RowRange), '}')
}

// appendRecord writes r as %+v prints it.
func appendRecord(b []byte, r *trace.Record) []byte {
	b = strconv.AppendInt(append(b, "{Cycle:"...), r.Cycle, 10)
	b = append(append(b, " Core:"...), r.Core...)
	b = append(append(b, " Kind:"...), r.Kind...)
	b = append(append(b, " Class:"...), r.Class...)
	b = strconv.AppendBool(append(b, " Priority:"...), r.Priority)
	b = appendInt(append(b, " Bank:"...), r.Bank)
	b = appendInt(append(b, " Row:"...), r.Row)
	b = appendInt(append(b, " Col:"...), r.Col)
	b = appendInt(append(b, " Beats:"...), r.Beats)
	return append(strconv.AppendBool(append(b, " EndOfRow:"...), r.EndOfRow), '}')
}
