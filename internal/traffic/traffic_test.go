package traffic

import (
	"math"
	"strings"
	"testing"

	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

func spec() Stream {
	return Stream{
		Name: "t", Class: noc.ClassMedia, ReadFrac: 0.5,
		Beats: []int{8, 16}, LoadFrac: 0.1,
		Pattern: Streaming, RowBase: 0, RowRange: 64,
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*Stream){
		func(s *Stream) { s.Beats = nil },
		func(s *Stream) { s.Beats = []int{0} },
		func(s *Stream) { s.LoadFrac = 0 },
		func(s *Stream) { s.LoadFrac = 1.5 },
		func(s *Stream) { s.ReadFrac = -0.1 },
		func(s *Stream) { s.RowRange = 0 },
	}
	for i, f := range bad {
		s := spec()
		f(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	closed := spec()
	closed.ClosedLoop = true
	closed.LoadFrac = 0 // closed loop has no load fraction
	if err := closed.Validate(); err != nil {
		t.Errorf("closed loop spec rejected: %v", err)
	}
}

// TestValidateRejectsNaN: a NaN load or read fraction fails every
// comparison, so a range check written as "x < lo || x > hi" lets it
// through; Validate must refuse it.
func TestValidateRejectsNaN(t *testing.T) {
	for name, f := range map[string]func(*Stream){
		"load": func(s *Stream) { s.LoadFrac = math.NaN() },
		"read": func(s *Stream) { s.ReadFrac = math.NaN() },
	} {
		s := spec()
		f(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("a NaN %s fraction validates", name)
		}
	}
}

func TestOpenLoopRateApproximatesLoad(t *testing.T) {
	s := spec()
	s.Beats = []int{16} // 8 bus cycles per request
	s.LoadFrac = 0.2    // one request per ~40 cycles
	g, err := NewGen(s, 4, 512, false, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	cycles := int64(100000)
	for now := int64(0); now < cycles; now++ {
		if g.Tick(now, false) != nil {
			n++
		}
	}
	// Offered bus cycles = n * 8; fraction should be close to 0.2.
	got := float64(n*8) / float64(cycles)
	if got < 0.16 || got > 0.24 {
		t.Errorf("offered load = %v, want ~0.2", got)
	}
}

func TestClosedLoopWaitsForCompletion(t *testing.T) {
	s := spec()
	s.ClosedLoop = true
	s.ThinkTime = 10
	s.LoadFrac = 0
	g, err := NewGen(s, 4, 512, false, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	var first *Request
	now := int64(0)
	for ; first == nil && now < 200; now++ {
		first = g.Tick(now, false)
	}
	if first == nil {
		t.Fatal("no request generated")
	}
	// Until completion, nothing more comes out.
	for k := int64(0); k < 100; k++ {
		if g.Tick(now+k, false) != nil {
			t.Fatal("closed loop issued while outstanding")
		}
	}
	g.OnComplete(now + 100)
	issued := false
	for k := int64(101); k < 200 && !issued; k++ {
		issued = g.Tick(now+k, false) != nil
	}
	if !issued {
		t.Fatal("closed loop did not resume after completion")
	}
}

func TestBlockedGeneratorRetries(t *testing.T) {
	s := spec()
	g, err := NewGen(s, 4, 512, false, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	// Block long enough to pass the start offset, then unblock.
	for now := int64(0); now < 100; now++ {
		if got := g.Tick(now, true); got != nil {
			t.Fatal("blocked generator must not emit")
		}
	}
	if g.Blocked == 0 {
		t.Fatal("blocked opportunities not counted")
	}
	var r *Request
	for now := int64(100); now < 200 && r == nil; now++ {
		r = g.Tick(now, false)
	}
	if r == nil {
		t.Fatal("generator did not recover after unblocking")
	}
}

// TestSkipBlockedEqualsBlockedTicks: SkipBlocked over a span leaves a
// generator exactly where a blocked Tick on every cycle of it would — for
// an open-loop stream (spans before, across and after its next arrival)
// and for a closed-loop one with room in its window and with none.
func TestSkipBlockedEqualsBlockedTicks(t *testing.T) {
	open, closed := spec(), spec()
	closed.ClosedLoop, closed.MaxOutstanding, closed.ThinkTime = true, 2, 5
	for name, s := range map[string]Stream{"open": open, "closed": closed} {
		mk := func() *Gen {
			g, err := NewGen(s, 4, 512, false, sim.NewRNG(3))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		ticked, skipped := mk(), mk()
		now := int64(0)
		span := func(n int64) {
			for c := now; c < now+n; c++ {
				if ticked.Tick(c, true) != nil {
					t.Fatalf("%s: blocked generator emitted", name)
				}
			}
			skipped.SkipBlocked(now, now+n)
			now += n
			if ticked.Blocked != skipped.Blocked {
				t.Fatalf("%s: through cycle %d ticking counts %d blocked cycles, SkipBlocked %d",
					name, now, ticked.Blocked, skipped.Blocked)
			}
		}
		issue := func() {
			for ; ; now++ {
				a, b := ticked.Tick(now, false), skipped.Tick(now, false)
				if (a == nil) != (b == nil) {
					t.Fatalf("%s: cycle %d: the two generators disagree on issuing", name, now)
				}
				if a != nil {
					now++
					return
				}
			}
		}
		span(10) // before the start offset, or across it
		span(90)
		issue()
		span(1)
		span(40)
		issue() // closed: the window is now full
		span(30)
		if s.ClosedLoop {
			if ticked.Blocked != skipped.Blocked || ticked.NextArrival() != 1<<63-1 {
				t.Fatalf("closed: full window expected, next arrival %d", ticked.NextArrival())
			}
			ticked.OnComplete(now)
			skipped.OnComplete(now)
			span(50) // room again: counts from the end of the think time
		}
		if ticked.Blocked == 0 {
			t.Fatalf("%s: no blocked cycle counted", name)
		}
	}
}

func TestStreamingAddressesAreSequentialRowHits(t *testing.T) {
	s := spec()
	s.Beats = []int{16}
	s.LoadFrac = 0.9
	g, err := NewGen(s, 4, 64, false, sim.NewRNG(4)) // small rows: 4 requests per row
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request // by value: the generator reuses what Tick returns
	for now := int64(0); len(reqs) < 40 && now < 100000; now++ {
		if r := g.Tick(now, false); r != nil {
			reqs = append(reqs, *r)
		}
	}
	if len(reqs) < 40 {
		t.Fatal("not enough requests")
	}
	hits := 0
	for i := 1; i < len(reqs); i++ {
		a, b := reqs[i-1].Addr, reqs[i].Addr
		if a.Bank == b.Bank && a.Row == b.Row {
			hits++
			if b.Col != a.Col+16 {
				t.Fatalf("columns not sequential: %v -> %v", a, b)
			}
		}
	}
	if hits < len(reqs)/2 {
		t.Errorf("streaming row-hit pairs = %d of %d, want majority", hits, len(reqs)-1)
	}
}

func TestRandomAddressesStayInRegion(t *testing.T) {
	s := spec()
	s.Pattern = Random
	s.RowBase, s.RowRange = 100, 50
	g, err := NewGen(s, 8, 512, false, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 50000; now++ {
		if r := g.Tick(now, false); r != nil {
			if r.Addr.Row < 100 || r.Addr.Row >= 150 {
				t.Fatalf("row %d outside region", r.Addr.Row)
			}
			if r.Addr.Bank < 0 || r.Addr.Bank >= 8 {
				t.Fatalf("bank %d out of range", r.Addr.Bank)
			}
		}
	}
}

func TestDemandPriorityFlag(t *testing.T) {
	s := spec()
	s.Class = noc.ClassDemand
	s.ClosedLoop = true
	s.LoadFrac = 0
	g, err := NewGen(s, 4, 512, true, sim.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	var r *Request
	for now := int64(0); r == nil && now < 200; now++ {
		r = g.Tick(now, false)
	}
	if r == nil || !r.Priority {
		t.Fatal("demand request should carry the priority flag when enabled")
	}
	// Media-class streams never get the flag even when priority is on.
	m := spec()
	gm, _ := NewGen(m, 4, 512, true, sim.NewRNG(7))
	var rm *Request
	for now := int64(0); rm == nil && now < 500; now++ {
		rm = gm.Tick(now, false)
	}
	if rm == nil || rm.Priority {
		t.Fatal("media request must not carry the priority flag")
	}
}

func TestReadFractionRespected(t *testing.T) {
	s := spec()
	s.ReadFrac = 0.8
	s.LoadFrac = 0.5
	g, _ := NewGen(s, 4, 512, false, sim.NewRNG(8))
	reads, total := 0, 0
	for now := int64(0); now < 200000 && total < 2000; now++ {
		if r := g.Tick(now, false); r != nil {
			total++
			if r.Kind == noc.Read {
				reads++
			}
		}
	}
	frac := float64(reads) / float64(total)
	if frac < 0.74 || frac > 0.86 {
		t.Errorf("read fraction = %v, want ~0.8", frac)
	}
}

// TestTickReturnsGeneratorOwnedRequest pins the Source ownership
// contract on Gen: the returned Request is the generator's own, the next
// issue overwrites it, and a Tick that issues nothing leaves it alone.
func TestTickReturnsGeneratorOwnedRequest(t *testing.T) {
	s := spec()
	s.Beats = []int{16}
	s.LoadFrac = 0.9
	g, err := NewGen(s, 4, 64, false, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	issue := func(now int64) (*Request, int64) {
		for ; now < 100000; now++ {
			if r := g.Tick(now, false); r != nil {
				return r, now + 1
			}
		}
		t.Fatal("no request generated")
		return nil, 0
	}
	first, now := issue(0)
	held := *first
	// The cycle after an issue is inside the inter-arrival gap, and a
	// blocked cycle issues nothing either: both return nil and leave the
	// request untouched.
	if g.Tick(now, false) != nil || g.Tick(g.NextArrival(), true) != nil {
		t.Fatal("expected idle ticks")
	}
	if *first != held {
		t.Fatalf("a nil Tick changed the returned request: %+v -> %+v", held, *first)
	}
	second, now := issue(now)
	if second != first {
		t.Fatal("Gen should hand out its one Request, not a fresh allocation")
	}
	if *first == held || first.Addr.Col != held.Addr.Col+16 {
		t.Fatalf("second issue did not overwrite the first: %+v then %+v", held, *first)
	}
	if avg := testing.AllocsPerRun(100, func() { _, now = issue(now) }); avg != 0 {
		t.Errorf("Tick allocates %.2f per request, want 0", avg)
	}
}

// TestPatternText: every pattern round-trips through MarshalText /
// UnmarshalText, the empty name is Streaming (an omitted spec field), and
// a name outside the table is an error that quotes it.
func TestPatternText(t *testing.T) {
	for p := Streaming; p <= Strided; p++ {
		text, err := p.MarshalText()
		if err != nil || len(text) == 0 {
			t.Fatalf("%d: MarshalText = %q, %v", int(p), text, err)
		}
		back := Pattern(-1)
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("%s: UnmarshalText = %d, %v", text, int(back), err)
		}
	}
	p := Strided
	if err := p.UnmarshalText(nil); err != nil || p != Streaming {
		t.Errorf("the empty name decoded to %d, %v; want Streaming", int(p), err)
	}
	for _, name := range []string{"zigzag", "Random", "Pattern(1)"} {
		p := Random
		err := p.UnmarshalText([]byte(name))
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("UnmarshalText(%q) = %v, want an error naming it", name, err)
		}
		if p != Random {
			t.Errorf("UnmarshalText(%q) failed but stored %d", name, int(p))
		}
	}
}

// TestInitCountsInCallerSlab: Init counts into the piece it is given,
// cut to one counter per Beats entry, and BeatHistogram folds repeated
// entries into the distinct sizes.
func TestInitCountsInCallerSlab(t *testing.T) {
	s := spec()
	s.Beats = []int{16, 8, 16}
	backing := make([]int64, 5)
	var g Gen
	if err := g.Init(s, 4, 512, false, sim.NewRNG(9), backing); err != nil {
		t.Fatal(err)
	}
	if len(g.beatCounts) != 3 || cap(g.beatCounts) != 3 {
		t.Fatalf("counters len %d cap %d, want 3 and 3", len(g.beatCounts), cap(g.beatCounts))
	}
	for now := int64(0); g.Reads+g.Writes < 200; now++ {
		g.Tick(now, false)
	}
	menu, counts := g.BeatHistogram()
	if len(menu) != 2 || menu[0] != 8 || menu[1] != 16 || counts[0]+counts[1] != 200 {
		t.Fatalf("histogram %v %v, want sizes [8 16] summing to 200", menu, counts)
	}
	if backing[3] != 0 || backing[4] != 0 {
		t.Fatalf("Init wrote past its piece: %v", backing)
	}
}
