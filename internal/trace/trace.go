// Package trace provides memory-request trace capture and replay. A
// trace is a JSON-lines stream of logical requests (one object per line)
// recorded at the network interfaces; replaying it through a different
// design configuration gives a controlled comparison on identical
// workloads — the standard methodology for memory-system studies and the
// natural extension point for users with their own application traces.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
	"aanoc/internal/traffic"
)

// Record is one logical memory request as observed at a core's network
// interface.
type Record struct {
	Cycle    int64  `json:"cycle"`
	Core     string `json:"core"`
	Kind     string `json:"kind"`  // "R" or "W"
	Class    string `json:"class"` // a noc.Class name
	Priority bool   `json:"priority,omitempty"`
	Bank     int    `json:"bank"`
	Row      int    `json:"row"`
	Col      int    `json:"col"`
	Beats    int    `json:"beats"`
	EndOfRow bool   `json:"endOfRow,omitempty"`
}

// Validate reports malformed records.
func (r *Record) Validate() error {
	if r.Cycle < 0 {
		return fmt.Errorf("trace: negative cycle %d", r.Cycle)
	}
	if r.Core == "" {
		return fmt.Errorf("trace: record without core")
	}
	if r.Kind != "R" && r.Kind != "W" {
		return fmt.Errorf("trace: kind %q (want R or W)", r.Kind)
	}
	if _, err := r.class(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if r.Beats < 1 {
		return fmt.Errorf("trace: %d beats", r.Beats)
	}
	if r.Bank < 0 || r.Row < 0 || r.Col < 0 {
		return fmt.Errorf("trace: negative address (%d,%d,%d)", r.Bank, r.Row, r.Col)
	}
	return nil
}

// class parses the Class field through noc's name table; an unknown
// name is an error, never another class.
func (r *Record) class() (noc.Class, error) {
	var c noc.Class
	err := c.UnmarshalText([]byte(r.Class))
	return c, err
}

// FromRequest converts a generated request into a trace record.
func FromRequest(cycle int64, core string, req *traffic.Request) Record {
	return Record{
		Cycle:    cycle,
		Core:     core,
		Kind:     req.Kind.String(),
		Class:    req.Class.String(),
		Priority: req.Priority,
		Bank:     req.Addr.Bank,
		Row:      req.Addr.Row,
		Col:      req.Addr.Col,
		Beats:    req.Beats,
		EndOfRow: req.EndOfRow,
	}
}

// toRequest converts a validated record back into a logical request.
func (r *Record) toRequest() traffic.Request {
	kind := noc.Read
	if r.Kind == "W" {
		kind = noc.Write
	}
	class, _ := r.class() // Validate has checked the name
	return traffic.Request{
		Kind:     kind,
		Class:    class,
		Priority: r.Priority,
		Addr:     dram.Address{Bank: r.Bank, Row: r.Row, Col: r.Col},
		Beats:    r.Beats,
		EndOfRow: r.EndOfRow,
	}
}

// Writer streams records as JSON lines.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
	n   int64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record.
func (t *Writer) Write(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	t.n++
	return t.enc.Encode(r)
}

// Count returns the number of records written.
func (t *Writer) Count() int64 { return t.n }

// Flush drains the buffer; call once at the end of the run.
func (t *Writer) Flush() error { return t.w.Flush() }

// Read parses a JSON-lines trace, validating every record and requiring
// non-decreasing cycles per core.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	lastByCore := map[string]int64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if rec.Cycle < lastByCore[rec.Core] {
			return nil, fmt.Errorf("trace: line %d: cycles decrease for core %s", line, rec.Core)
		}
		lastByCore[rec.Core] = rec.Cycle
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Replayer feeds one core's recorded requests back into a simulation. It
// implements the traffic.Source interface: each request is issued at the
// first unblocked cycle at or after its recorded cycle (so a slower
// design shifts the tail rather than dropping work).
type Replayer struct {
	records []Record
	next    int
	req     traffic.Request // the request Tick returns (valid until the next issue)

	// Issued counts replayed requests; Outstanding tracks completions
	// for closed-loop accounting (purely informational on replay).
	Issued      int64
	Outstanding int64
}

// NewReplayer builds a replayer over one core's records (must be
// cycle-sorted, as Read guarantees per core).
func NewReplayer(records []Record) *Replayer {
	return &Replayer{records: records}
}

// Tick implements traffic.Source.
func (rp *Replayer) Tick(now int64, blocked bool) *traffic.Request {
	if rp.next >= len(rp.records) {
		return nil
	}
	rec := &rp.records[rp.next]
	if now < rec.Cycle || blocked {
		return nil
	}
	rp.next++
	rp.Issued++
	rp.Outstanding++
	rp.req = rec.toRequest()
	return &rp.req
}

// OnComplete implements traffic.Source.
func (rp *Replayer) OnComplete(now int64) {
	if rp.Outstanding > 0 {
		rp.Outstanding--
	}
}

// NextArrival implements traffic.Source: the recorded cycle of the next
// unissued request, or math.MaxInt64 once the trace is exhausted.
func (rp *Replayer) NextArrival() int64 {
	if rp.next >= len(rp.records) {
		return 1<<63 - 1
	}
	return rp.records[rp.next].Cycle
}

// SkipBlocked implements traffic.Source: a blocked Tick leaves the
// replayer untouched, so a blocked span has nothing to account for.
func (rp *Replayer) SkipBlocked(from, to int64) {}

// Done reports whether every record has been issued.
func (rp *Replayer) Done() bool { return rp.next >= len(rp.records) }

// SplitByCore partitions records per core, preserving order.
func SplitByCore(records []Record) map[string][]Record {
	out := map[string][]Record{}
	for _, r := range records {
		out[r.Core] = append(out[r.Core], r)
	}
	return out
}
