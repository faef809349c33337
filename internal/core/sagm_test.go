package core

import (
	"testing"
	"testing/quick"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// cutAll cuts every packet of the logical request p, as the network
// interface does one at a time while its injector reaches them.
func cutAll(s Splitter, p *noc.Packet) []*noc.Packet {
	n, _ := s.Size(p.Kind, p.Beats)
	out := make([]*noc.Packet, n)
	for k := range out {
		sp := *p
		s.Cut(&sp, k)
		out[k] = &sp
	}
	return out
}

func logical(beats int, kind noc.Kind) *noc.Packet {
	return &noc.Packet{
		ID: 1, ParentID: 1, Kind: kind, Class: noc.ClassMedia,
		Beats: beats, Addr: dram.Address{Bank: 2, Row: 9, Col: 16}, Splits: 1,
		APTag: true, // the request is the stream's last access to its row
	}
}

func TestSplitGranularityPerGeneration(t *testing.T) {
	if g := SplitGranularity(1); g != 4 {
		t.Errorf("DDR1 granularity = %d, want 4", g)
	}
	if g := SplitGranularity(2); g != 4 {
		t.Errorf("DDR2 granularity = %d, want 4", g)
	}
	if g := SplitGranularity(3); g != 8 {
		t.Errorf("DDR3 granularity = %d, want 8", g)
	}
}

func TestSplitPaperExample(t *testing.T) {
	// The paper's example: a 9-granule packet splits into 2,2,2,2,1
	// accesses for DDR I/II and 4,4,1 for DDR III. In beat units (one
	// paper granule = 2 beats = 1 data cycle) that is an 18-beat request
	// splitting into 4,4,4,4,2 beats (five packets) at granularity 4 and
	// 8,8,2 (three packets) at granularity 8.
	p := logical(18, noc.Write)
	five := cutAll(Splitter{GranularityBeats: 4}, p)
	if len(five) != 5 {
		t.Fatalf("DDR1/2 split count = %d, want 5", len(five))
	}
	wantBeats := []int{4, 4, 4, 4, 2}
	for i, sp := range five {
		if sp.Beats != wantBeats[i] {
			t.Errorf("split %d beats = %d, want %d", i, sp.Beats, wantBeats[i])
		}
	}
	three := cutAll(Splitter{GranularityBeats: 8}, p)
	if len(three) != 3 {
		t.Fatalf("DDR3 split count = %d, want 3", len(three))
	}
}

func TestSplitInvariants(t *testing.T) {
	p := logical(18, noc.Write)
	splits := cutAll(Splitter{GranularityBeats: 4}, p)
	total, col := 0, p.Addr.Col
	for i, sp := range splits {
		total += sp.Beats
		if sp.ParentID != p.ID {
			t.Errorf("split %d parent = %d, want %d", i, sp.ParentID, p.ID)
		}
		if sp.Splits != len(splits) {
			t.Errorf("split %d Splits = %d, want %d", i, sp.Splits, len(splits))
		}
		if sp.Addr.Col != col {
			t.Errorf("split %d col = %d, want %d", i, sp.Addr.Col, col)
		}
		if sp.Addr.Bank != p.Addr.Bank || sp.Addr.Row != p.Addr.Row {
			t.Errorf("split %d changed bank/row", i)
		}
		if got, want := sp.APTag, i == len(splits)-1; got != want {
			t.Errorf("split %d APTag = %v, want %v", i, got, want)
		}
		if sp.Flits != noc.FlitsForBeats(sp.Beats) {
			t.Errorf("write split %d flits = %d, want %d", i, sp.Flits, noc.FlitsForBeats(sp.Beats))
		}
		col += sp.Beats
	}
	if total != p.Beats {
		t.Fatalf("split beats sum = %d, want %d", total, p.Beats)
	}
}

func TestSplitReadTravelsUnsplit(t *testing.T) {
	// A read request cannot block a priority packet (it is one command
	// flit regardless of burst length), so SAGM leaves it unsplit and the
	// memory subsystem applies the granularity matching.
	p := logical(18, noc.Read)
	splits := cutAll(Splitter{GranularityBeats: 8}, p)
	if len(splits) != 1 {
		t.Fatalf("read produced %d packets, want 1", len(splits))
	}
	if splits[0].Flits != 1 || splits[0].Beats != 18 || !splits[0].APTag {
		t.Fatalf("read request malformed: %+v", splits[0])
	}
}

func TestSplitSmallRequestSingleTagged(t *testing.T) {
	p := logical(2, noc.Write)
	splits := cutAll(Splitter{GranularityBeats: 4}, p)
	if len(splits) != 1 || !splits[0].APTag || splits[0].Beats != 2 {
		t.Fatalf("small request should become one tagged packet, got %+v", splits[0])
	}
}

func TestSplitRowContinuationStaysUntagged(t *testing.T) {
	// A request that is not the stream's last access to its row (APTag
	// false) produces no tagged split: the row stays open for the hits
	// that follow.
	p := logical(18, noc.Write)
	p.APTag = false
	splits := cutAll(Splitter{GranularityBeats: 4}, p)
	for i, sp := range splits {
		if sp.APTag {
			t.Errorf("split %d tagged on a row-continuing request", i)
		}
	}
}

// TestCutAllocatesNothing: the network interface cuts each split into a
// packet it already holds, so cutting a request allocates nothing.
func TestCutAllocatesNothing(t *testing.T) {
	s := Splitter{GranularityBeats: 4}
	req, p := logical(18, noc.Write), new(noc.Packet)
	avg := testing.AllocsPerRun(100, func() {
		for k := range 5 {
			*p = *req
			s.Cut(p, k)
		}
	})
	if avg != 0 {
		t.Errorf("cutting a request allocates %.2f, want 0", avg)
	}
}

func TestNoSplit(t *testing.T) {
	p := logical(18, noc.Write)
	NoSplit(p)
	if p.APTag || p.Splits != 1 || p.ParentID != p.ID {
		t.Fatalf("NoSplit bookkeeping wrong: %+v", p)
	}
	if p.Flits != noc.FlitsForBeats(18) {
		t.Fatalf("NoSplit write flits = %d, want %d", p.Flits, noc.FlitsForBeats(18))
	}
	r := logical(18, noc.Read)
	if NoSplit(r); r.Flits != 1 {
		t.Fatalf("NoSplit read flits = %d, want 1", r.Flits)
	}
}

func TestPropertySplitConservesBeats(t *testing.T) {
	f := func(beats uint8, gran uint8, write bool) bool {
		b := int(beats)%200 + 1
		g := []int{2, 4, 8}[int(gran)%3]
		kind := noc.Read
		if write {
			kind = noc.Write
		}
		p := logical(b, kind)
		splits := cutAll(Splitter{GranularityBeats: g}, p)
		if kind == noc.Read {
			// Reads travel unsplit as one command flit; the memory
			// subsystem matches the granularity itself.
			return len(splits) == 1 && splits[0].Beats == b &&
				splits[0].Flits == 1 && splits[0].APTag && splits[0].ParentID == p.ID
		}
		sum, tags := 0, 0
		for _, sp := range splits {
			if sp.Beats < 1 || sp.Beats > g {
				return false
			}
			sum += sp.Beats
			if sp.APTag {
				tags++
			}
		}
		wantN := (b + g - 1) / g
		return sum == b && tags == 1 && splits[len(splits)-1].APTag && len(splits) == wantN && splits[0].ParentID == p.ID
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
