// Package traffic generates the application memory request streams the
// paper's benchmarks are built from. Each core carries one or more
// streams; a stream produces logical requests (before any SAGM splitting)
// with a configurable class, burst-size mix, read/write mix, offered load
// and address pattern.
//
// The paper evaluates proprietary industrial traffic (Blu-ray and DTV
// SoCs); these generators are the documented substitution: they reproduce
// the traffic structure the paper's mechanisms react to — packet-length
// distribution (granularity mismatch), demand-vs-best-effort mix
// (priority service), and bank/row locality (conflict and row-hit rates).
package traffic

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

// Pattern selects how a stream walks the address space.
type Pattern int

const (
	// Streaming walks columns sequentially through rows of a private row
	// region, advancing banks page by page like a frame buffer with
	// row-bank-column interleaving: strongly row-hit-friendly within the
	// stream, conflict-prone across streams sharing banks.
	Streaming Pattern = iota
	// Random draws a fresh bank and row for every request (demand-miss
	// style traffic).
	Random
	// Strided alternates between two row regions (double-buffered
	// producer/consumer behaviour).
	Strided
)

// patternText is the one name table of the address patterns, read by
// MarshalText and UnmarshalText: the names are a spec file's spelling.
// Sweep keys and store entries hold a pattern as its number, in
// internal/codec's bytes, so renaming one moves no key.
var patternText = [...]string{
	Streaming: "streaming",
	Random:    "random",
	Strided:   "strided",
}

// MarshalText spells the pattern by name (encoding.TextMarshaler). It
// never fails: a value outside the table is written as Pattern(n), which
// UnmarshalText rejects.
func (p Pattern) MarshalText() ([]byte, error) {
	if p < 0 || int(p) >= len(patternText) {
		return fmt.Appendf(nil, "Pattern(%d)", int(p)), nil
	}
	return []byte(patternText[p]), nil
}

// UnmarshalText resolves a pattern name (encoding.TextUnmarshaler); the
// empty name selects Streaming, like an omitted field. A name outside
// the table is an error wrapping strconv.ErrSyntax.
func (p *Pattern) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*p = Streaming
		return nil
	}
	for i, name := range patternText {
		if name == string(text) {
			*p = Pattern(i)
			return nil
		}
	}
	return fmt.Errorf("traffic: %w: unknown pattern %q (want %s)",
		strconv.ErrSyntax, string(text), strings.Join(patternText[:], ", "))
}

// Stream describes one request stream of a core. The json tags are the
// scenario spec's wire format: a spec file's stream object is this
// struct.
type Stream struct {
	Name string `json:"name"`
	// Class is the traffic class, on the wire by its noc.Class name.
	Class noc.Class `json:"class"`

	// ReadFrac is the probability a request is a read.
	ReadFrac float64 `json:"readFrac"`
	// Beats lists the burst sizes (in data beats) the stream draws from,
	// uniformly; repeat an entry to weight it.
	Beats []int `json:"beats"`
	// LoadFrac is the offered load as a fraction of the DRAM data-bus
	// bandwidth (open-loop streams). A request of b beats occupies b/2
	// bus cycles, so the mean inter-arrival time is (b/2)/LoadFrac.
	LoadFrac float64 `json:"loadFrac,omitempty"`

	// ClosedLoop streams (CPU demand) bound their outstanding requests
	// and think for ThinkTime cycles after each completion.
	ClosedLoop bool  `json:"closedLoop,omitempty"`
	ThinkTime  int64 `json:"thinkTime,omitempty"`
	// MaxOutstanding is the closed-loop window (default 1). A superscalar
	// core with several misses in flight issues bursts of demand requests
	// — the paper's Fig. 1 scenario where two priority packets to the
	// same bank compete.
	MaxOutstanding int `json:"maxOutstanding,omitempty"`

	// Pattern is the address walk, on the wire by name and always
	// written out.
	Pattern Pattern `json:"pattern"`
	// BankOffset rotates the stream's bank walk so different cores start
	// on different banks.
	BankOffset int `json:"bankOffset,omitempty"`
	// RowBase/RowRange bound the stream's private row region.
	RowBase  int `json:"rowBase,omitempty"`
	RowRange int `json:"rowRange"`
}

// Validate reports specification errors.
func (s *Stream) Validate() error {
	if len(s.Beats) == 0 {
		return fmt.Errorf("traffic: stream %q has no burst sizes", s.Name)
	}
	for _, b := range s.Beats {
		if b < 1 {
			return fmt.Errorf("traffic: stream %q has burst of %d beats", s.Name, b)
		}
	}
	// Negated ranges, so that a NaN, for which every comparison is
	// false, fails them.
	if !s.ClosedLoop && !(s.LoadFrac > 0 && s.LoadFrac <= 1) {
		return fmt.Errorf("traffic: stream %q load fraction %v outside (0,1]", s.Name, s.LoadFrac)
	}
	if !(s.ReadFrac >= 0 && s.ReadFrac <= 1) {
		return fmt.Errorf("traffic: stream %q read fraction %v", s.Name, s.ReadFrac)
	}
	if s.RowRange < 1 {
		return fmt.Errorf("traffic: stream %q empty row region", s.Name)
	}
	return nil
}

// Source produces logical requests for one stream of a core: the
// synthetic generators of this package, or a trace.Replayer feeding
// recorded workloads back into the system.
type Source interface {
	// Tick returns the request issued this cycle, or nil. blocked
	// reports network-interface backpressure. The source owns the
	// Request: it is valid until this source's next Tick that issues one
	// (a nil return leaves it untouched), so a caller keeps what it needs
	// by value, never the pointer.
	Tick(now int64, blocked bool) *Request
	// OnComplete notifies the source that one of its logical requests
	// finished (closed-loop pacing).
	OnComplete(now int64)
	// NextArrival returns the earliest cycle the source could produce a
	// request, judged from its own state — or math.MaxInt64 when only a
	// completion can unblock it (a saturated closed-loop window, an
	// exhausted trace). Ticks strictly before NextArrival return nil
	// without changing state, so the simulation kernel skips them.
	NextArrival() int64
	// SkipBlocked accounts for the cycles [from, to) in one call, exactly
	// as Tick(t, true) on each of them would have: a caller that knows
	// its interface stays blocked over the span — and delivers no
	// OnComplete inside it — sleeps through it and settles afterwards.
	SkipBlocked(from, to int64)
}

// Request is a logical memory request produced by a stream, before SAGM
// splitting and packetisation.
type Request struct {
	Kind     noc.Kind
	Class    noc.Class
	Priority bool
	Addr     dram.Address
	Beats    int
	// EndOfRow marks the stream's last access to this DRAM row; under
	// SAGM the network interface places the auto-precharge tag only on
	// the final split of such a request, so the partially-open-page
	// policy keeps rows open exactly as long as the application will
	// still hit them.
	EndOfRow bool
}

// Gen is the runtime state of one stream.
type Gen struct {
	Spec Stream
	rng  *sim.RNG

	banks    int
	rowBeats int // beats per row (page size / bus width)

	nextAt      int64
	outstanding int

	bank, row, colBeat int

	priority bool // demand requests flagged priority this run

	req Request // the request Tick returns, refilled by every issue

	// Blocked counts generation opportunities lost to backpressure.
	Blocked int64
	// Reads/Writes count generated requests by direction (their sum is
	// all produced); beatCounts counts the draws of each Spec.Beats entry
	// (sized at construction, so counting stays off the allocator on the
	// hot path), which BeatHistogram folds into the produced burst-size
	// histogram.
	Reads, Writes int64
	beatCounts    []int64
}

// NewGen builds the runtime generator for a stream. banks and rowBeats
// describe the device geometry (rowBeats = row size in data beats);
// priority marks whether demand-class requests carry the priority flag
// this run.
func NewGen(spec Stream, banks, rowBeats int, priority bool, rng *sim.RNG) (*Gen, error) {
	g := new(Gen)
	if err := g.Init(spec, banks, rowBeats, priority, rng, make([]int64, len(spec.Beats))); err != nil {
		return nil, err
	}
	return g, nil
}

// Init is NewGen in place: it builds the generator into g, counting its
// burst sizes in counts (one per spec.Beats entry, zero), so a caller can
// hold a population of generators and their counters in one slab each.
func (g *Gen) Init(spec Stream, banks, rowBeats int, priority bool, rng *sim.RNG, counts []int64) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if banks < 1 || rowBeats < 1 {
		return fmt.Errorf("traffic: bad geometry banks=%d rowBeats=%d", banks, rowBeats)
	}
	*g = Gen{
		Spec:     spec,
		rng:      rng,
		banks:    banks,
		rowBeats: rowBeats,
		bank:     spec.BankOffset % banks,
		row:      spec.RowBase,
		priority: priority && spec.Class == noc.ClassDemand,

		beatCounts: counts[:len(spec.Beats):len(spec.Beats)],
	}
	// Desynchronise stream start times.
	g.nextAt = int64(rng.Intn(64))
	return nil
}

// BeatHistogram returns the produced burst-size histogram: the menu's
// distinct sizes in ascending order and the parallel production counts.
func (g *Gen) BeatHistogram() ([]int, []int64) {
	menu := slices.Clone(g.Spec.Beats)
	slices.Sort(menu)
	menu = slices.Compact(menu)
	counts := make([]int64, len(menu))
	for i, b := range g.Spec.Beats {
		j, _ := slices.BinarySearch(menu, b)
		counts[j] += g.beatCounts[i]
	}
	return menu, counts
}

// Tick returns the logical request the stream issues this cycle, or nil.
// blocked reports whether the network interface refuses new work. A
// blocked open-loop stream skips the request (a stalled media pipeline
// degrades rather than accumulating unbounded debt), so a design that
// cannot keep up shows its deficit as lost utilization at bounded latency
// — the paper's regime. A blocked closed-loop (demand) stream retries
// every cycle.
func (g *Gen) Tick(now int64, blocked bool) *Request {
	if g.Spec.ClosedLoop && g.outstanding >= g.window() {
		return nil
	}
	if now < g.nextAt {
		return nil
	}
	if blocked {
		g.Blocked++
		return nil
	}
	r := g.makeRequest()
	if g.Spec.ClosedLoop {
		g.outstanding++
	} else {
		busCycles := dram.BurstCycles(r.Beats)
		ia := int64(float64(busCycles)/g.Spec.LoadFrac + 0.5)
		g.nextAt = now + sim.Jitter(g.rng, ia, 0.4)
	}
	return r
}

// SkipBlocked implements Source: a blocked Tick counts a lost
// opportunity on every cycle from nextAt on, unless the closed-loop
// window is full; neither changes while no request issues or completes.
func (g *Gen) SkipBlocked(from, to int64) {
	if g.Spec.ClosedLoop && g.outstanding >= g.window() {
		return
	}
	if n := to - max(from, g.nextAt); n > 0 {
		g.Blocked += n
	}
}

// OnComplete notifies a closed-loop stream that one outstanding request
// finished; it thinks for ThinkTime (jittered) before refilling the
// window.
func (g *Gen) OnComplete(now int64) {
	if !g.Spec.ClosedLoop {
		return
	}
	if g.outstanding > 0 {
		g.outstanding--
	}
	at := now + sim.Jitter(g.rng, g.Spec.ThinkTime, 0.5)
	if at > g.nextAt {
		g.nextAt = at
	}
}

// NextArrival implements Source. A saturated closed-loop stream waits
// on a completion (OnComplete always pushes nextAt past the completion
// cycle, so the window refills no earlier than nextAt).
func (g *Gen) NextArrival() int64 {
	if g.Spec.ClosedLoop && g.outstanding >= g.window() {
		return 1<<63 - 1
	}
	return g.nextAt
}

// window returns the closed-loop outstanding bound.
func (g *Gen) window() int {
	if g.Spec.MaxOutstanding < 1 {
		return 1
	}
	return g.Spec.MaxOutstanding
}

// makeRequest draws size, direction and address into the generator's one
// Request (the Source contract: valid until the next issue).
func (g *Gen) makeRequest() *Request {
	pick := g.rng.Intn(len(g.Spec.Beats)) // sim.Pick, keeping the index
	beats := g.Spec.Beats[pick]
	g.beatCounts[pick]++
	kind := noc.Write
	if g.rng.Float64() < g.Spec.ReadFrac {
		kind = noc.Read
		g.Reads++
	} else {
		g.Writes++
	}
	var addr dram.Address
	endOfRow := true
	switch g.Spec.Pattern {
	case Random:
		addr = dram.Address{
			Bank: g.rng.Intn(g.banks),
			Row:  g.Spec.RowBase + g.rng.Intn(g.Spec.RowRange),
			Col:  g.rng.Intn(max(1, g.rowBeats-beats)+1) / 8 * 8,
		}
	case Strided:
		half := max(1, g.Spec.RowRange/2)
		region := g.rng.Intn(2) * half
		addr = dram.Address{
			Bank: (g.Spec.BankOffset + g.rng.Intn(2)) % g.banks,
			Row:  g.Spec.RowBase + region + g.rng.Intn(half),
			Col:  g.rng.Intn(max(1, g.rowBeats-beats)+1) / 8 * 8,
		}
	default: // Streaming
		if g.colBeat+beats > g.rowBeats {
			g.colBeat = 0
			g.bank = (g.bank + 1) % g.banks
			if g.bank == g.Spec.BankOffset%g.banks {
				g.row = g.Spec.RowBase + (g.row-g.Spec.RowBase+1)%g.Spec.RowRange
			}
		}
		addr = dram.Address{Bank: g.bank, Row: g.row, Col: g.colBeat}
		g.colBeat += beats
		// The stream keeps hitting this row until the next request no
		// longer fits.
		minBeats := g.Spec.Beats[0]
		for _, b := range g.Spec.Beats {
			if b < minBeats {
				minBeats = b
			}
		}
		endOfRow = g.colBeat+minBeats > g.rowBeats
	}
	g.req = Request{
		Kind:     kind,
		Class:    g.Spec.Class,
		Priority: g.priority,
		Addr:     addr,
		Beats:    beats,
		EndOfRow: endOfRow,
	}
	return &g.req
}
