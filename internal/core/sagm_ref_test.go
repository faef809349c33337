package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// refSplit is the eager splitter Cut replaced: it cuts every packet of
// the logical request p when the request is generated and appends them
// to dst, drawing split IDs from newID. It is the oracle the on-demand
// cut must agree with, split by split.
func refSplit(s Splitter, dst []*noc.Packet, p *noc.Packet, newID func() int64) ([]*noc.Packet, error) {
	if s.GranularityBeats < 1 {
		return dst, fmt.Errorf("core: invalid split granularity %d", s.GranularityBeats)
	}
	if p.Beats < 1 {
		return dst, fmt.Errorf("core: packet %v has no payload", p)
	}
	if p.Kind == noc.Read {
		p.ParentID = p.ID
		p.Splits = 1
		p.Flits = 1
		return append(dst, p), nil
	}
	n := (p.Beats + s.GranularityBeats - 1) / s.GranularityBeats
	remaining := p.Beats
	col := p.Addr.Col
	for i := 0; i < n; i++ {
		beats := s.GranularityBeats
		if beats > remaining {
			beats = remaining
		}
		sp := new(noc.Packet)
		*sp = *p // copy shared fields
		sp.ID = newID()
		sp.ParentID = p.ID
		sp.Beats = beats
		sp.Addr.Col = col
		sp.Splits = n
		sp.APTag = p.APTag && i == n-1
		sp.Flits = noc.FlitsForBeats(beats)
		dst = append(dst, sp)
		remaining -= beats
		col += beats
	}
	return dst, nil
}

// TestCutMatchesEagerSplit checks the on-demand cut against the eager
// oracle over a random sample of requests: every (beats, granularity,
// column, AP tag, kind) drawn gets the same packet count from Size, the
// same flits in total, and for every k a packet Cut makes equal, field
// for field (ID, ParentID, beats, column, Splits, APTag, Flits and the
// rest), to the oracle's split k, the split IDs following the request's
// as the oracle's ID source draws them. Designs without SAGM send a
// request as NoSplit makes it, read or write, one packet that keeps the
// request's identity and loses its tag.
func TestCutMatchesEagerSplit(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for range 5000 {
		req := noc.Packet{
			ID: rng.Int64N(1 << 40), Req: 3, SrcCore: 2, Src: noc.Coord{X: 1, Y: 2}, Dst: noc.Coord{X: 3},
			Kind: noc.Kind(rng.IntN(2)), Class: noc.ClassMedia, Priority: rng.IntN(2) == 0,
			Addr:  dram.Address{Bank: rng.IntN(8), Row: rng.IntN(1 << 14), Col: rng.IntN(512)},
			Beats: 1 + rng.IntN(96), Gen: 42, APTag: rng.IntN(2) == 0,
		}
		s := Splitter{GranularityBeats: []int{1, 2, 3, 4, 8, 16}[rng.IntN(6)]}
		base := req
		id := req.ID
		want, err := refSplit(s, nil, &base, func() int64 { id++; return id })
		if err != nil {
			t.Fatal(err)
		}
		n, flits := s.Size(req.Kind, req.Beats)
		if n != len(want) {
			t.Fatalf("%v at granularity %d: Size says %d packets, the oracle cuts %d", &req, s.GranularityBeats, n, len(want))
		}
		for k, w := range want {
			got := req
			s.Cut(&got, k)
			if got != *w {
				t.Fatalf("%v at granularity %d, split %d:\ncut    %+v\noracle %+v", &req, s.GranularityBeats, k, got, *w)
			}
			flits -= got.Flits
		}
		if flits != 0 {
			t.Fatalf("%v at granularity %d: Size's flits off by %d from the packets'", &req, s.GranularityBeats, flits)
		}
	}
	for _, kind := range []noc.Kind{noc.Read, noc.Write} {
		p := noc.Packet{ID: 9, Kind: kind, Beats: 18, Addr: dram.Address{Col: 16}, APTag: true}
		NoSplit(&p)
		want := noc.Packet{ID: 9, ParentID: 9, Kind: kind, Beats: 18, Addr: dram.Address{Col: 16}, Splits: 1, Flits: 1}
		if kind == noc.Write {
			want.Flits = noc.FlitsForBeats(18)
		}
		if p != want {
			t.Errorf("NoSplit %v: %+v, want %+v", kind, p, want)
		}
	}
}
