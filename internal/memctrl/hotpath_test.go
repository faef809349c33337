package memctrl

import (
	"math"
	"reflect"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// TestNextEventEquivalence is the event-queue soundness gate, for every
// controller: driving it the way the system's channel does — Tick at
// NextEvent or in the cycle of an admission, and a refused head offered
// again only after a Tick that leaves Accepts true — must produce the
// exact completion stream of offering and ticking every cycle. A bound
// that is ever late (past a cycle where Tick would have acted) shows up
// as a diverging or missing completion; a refused head whose Accepts
// turns without a Tick (the contract the skipped offers rest on) fails
// in the cycle it turns. The slots are two deep and the stream is
// offered in order, so every front-end refuses heads and sleeps on a
// backlog behind a full pipeline.
func TestNextEventEquivalence(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR3, 667)
	ctrls := map[string]func(*dram.Device, func(Completion)) Controller{
		"simple": func(d *dram.Device, done func(Completion)) Controller {
			return NewSimple(d, PartialOpenPage, 4, done)
		},
		"memmax": func(d *dram.Device, done func(Completion)) Controller {
			m := NewMemMax(d, DefaultMemMaxConfig(), done)
			m.shrink(2)
			return m
		},
		"dpq": func(d *dram.Device, done func(Completion)) Controller {
			q := NewDPQ(d, DefaultDPQConfig(3), done)
			q.shrink(2)
			return q
		},
		"staged": func(d *dram.Device, done func(Completion)) Controller {
			s := NewStaged(d, 3, 4, OpenPage, done)
			s.shrink(2)
			return s
		},
		"regulated": func(d *dram.Device, done func(Completion)) Controller {
			r := NewRegulator(d, 3, 8, 4, OpenPage, done)
			r.shrink(2)
			// A tight budget: two requests per (core, bank) and window, so
			// heads wait for window rolls with the pipeline empty.
			r.budget = 16
			return r
		},
	}
	type completion struct{ id, at int64 }
	run := func(t *testing.T, mk func(*dram.Device, func(Completion)) Controller, eventDriven bool) []completion {
		var done []completion
		s := mk(dram.MustNewDevice(tm), func(c Completion) { done = append(done, completion{c.Pkt.ID, c.At}) })
		// A mix of row hits, bank interleaves, conflicts, read/write
		// turnarounds, and AP tags — every branch of reqReadyAt — from
		// three cores and classes, so every front-end arbitrates.
		var pkts []*noc.Packet
		for i := int64(0); i < 48; i++ {
			kind := noc.Read
			if i%3 == 1 {
				kind = noc.Write
			}
			bank := int(i) % 3
			row := int(i/6) % 2
			p := req(i+1, bank, row, int(i)*8, kind, 8, i%4 == 3)
			p.SrcCore = int(i/2) % 3
			p.Class = []noc.Class{noc.ClassDemand, noc.ClassPrefetch, noc.ClassMedia}[i%3]
			pkts = append(pkts, p)
		}
		// The controller's next tick and whether the head is held refused.
		// The event-driven driver still visits every cycle, so a held
		// head's Accepts is asked in each one it sleeps through.
		tickAt, refused := int64(0), false
		retries, slept := 0, 0
		i := 0
		for now := int64(0); now < 20000; now++ {
			if refused && eventDriven {
				if s.Accepts(pkts[i]) {
					t.Fatalf("cycle %d: refused head %d became acceptable without a Tick", now, pkts[i].ID)
				}
			} else {
				for i < len(pkts) && s.Offer(pkts[i], now) {
					i++
					tickAt = now // an admission ticks the controller this cycle
				}
				refused = i < len(pkts)
			}
			if tickAt <= now || !eventDriven {
				s.Tick(now)
				if tickAt = s.NextEvent(now); tickAt <= now {
					t.Fatalf("NextEvent(%d) = %d, not in the future", now, tickAt)
				}
				if s.CanGrant() && tickAt != now+1 {
					t.Fatalf("cycle %d: a grant is possible but NextEvent = %d", now, tickAt)
				}
				if refused && s.Accepts(pkts[i]) {
					refused = false // offer it next cycle
					retries++
				}
			} else if refused {
				slept++
			}
			if i == len(pkts) && !s.Busy() {
				break
			}
		}
		if len(done) != len(pkts) {
			t.Fatalf("completed %d of %d requests (event-driven: %v)", len(done), len(pkts), eventDriven)
		}
		if eventDriven && (retries == 0 || slept == 0) {
			t.Errorf("%d re-offers, %d cycles asleep on a refused head: the event-driven admission went unexercised", retries, slept)
		}
		return done
	}
	for name, mk := range ctrls {
		mk := mk
		t.Run(name, func(t *testing.T) {
			ref, ev := run(t, mk, false), run(t, mk, true)
			if !reflect.DeepEqual(ref, ev) {
				t.Fatalf("event-driven completions diverge from per-cycle:\nper-cycle:    %v\nevent-driven: %v", ref, ev)
			}
		})
	}
}

// TestNextEventRefreshDeadline: an idle controller's only future event is
// the refresh deadline; once the refresh drain begins, the engine polls
// every cycle until it ends.
func TestNextEventRefreshDeadline(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR1, 133) // tREFI ~1036
	s, dev, done := mkSimple(t, tm, OpenPage)
	if got := s.NextEvent(0); got != tm.TREFI {
		t.Fatalf("idle NextEvent(0) = %d, want refresh deadline %d", got, tm.TREFI)
	}
	// Leave a row open so the refresh has a drain phase (open-page policy
	// keeps the row open after the read completes).
	p := req(1, 0, 5, 0, noc.Read, 8, false)
	drive(t, s, []*noc.Packet{p}, done, 1000)
	// With the pipeline idle again, the only event left is the deadline.
	idleAt := (*done)[0].At + 64
	if _, open := dev.OpenRow(0, idleAt); !open {
		t.Fatal("open-page read should leave its row open")
	}
	if got := s.NextEvent(idleAt); got != tm.TREFI {
		t.Fatalf("NextEvent(%d) = %d, want refresh deadline %d", idleAt, got, tm.TREFI)
	}
	// Jump to the deadline: the tick starts the refresh and spends the
	// cycle precharging the open bank, so the drain polls next-cycle.
	s.Tick(tm.TREFI)
	if !s.eng.refreshing {
		t.Fatal("tick at tREFI did not start the refresh")
	}
	if got := s.NextEvent(tm.TREFI); got != tm.TREFI+1 {
		t.Fatalf("refreshing NextEvent = %d, want %d", got, tm.TREFI+1)
	}
	// Drain it; the next deadline re-arms a full interval later.
	now := tm.TREFI
	for s.eng.refreshing && now < 3*tm.TREFI {
		now++
		s.Tick(now)
	}
	if s.eng.refreshing {
		t.Fatal("refresh never finished")
	}
	if dev.Stats().Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", dev.Stats().Refreshes)
	}
	if got := s.NextEvent(now); got != s.eng.nextRefresh {
		t.Fatalf("post-refresh NextEvent = %d, want next deadline %d", got, s.eng.nextRefresh)
	}
}

// TestNextEventRearmAfterBurst: after a burst drains, a refresh-free
// engine reports "idle until offered" (MaxInt64); a successful Offer
// re-arms a finite bound, and the bound tracks the in-flight request.
func TestNextEventRearmAfterBurst(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	tm.TREFI = 0 // isolate the request path from refresh deadlines
	s, _, done := mkSimple(t, tm, OpenPage)

	p := req(1, 0, 5, 0, noc.Read, 8, false)
	drive(t, s, []*noc.Packet{p}, done, 1000)
	if len(*done) != 1 {
		t.Fatalf("burst did not complete: %d", len(*done))
	}
	now := (*done)[0].At + 64
	if got := s.NextEvent(now); got != math.MaxInt64 {
		t.Fatalf("drained NextEvent = %d, want MaxInt64 (idle until offered)", got)
	}
	p2 := req(2, 1, 7, 0, noc.Read, 8, false)
	if !s.Offer(p2, now) {
		t.Fatal("drained controller refused an offer")
	}
	next := s.NextEvent(now)
	if next <= now || next == math.MaxInt64 {
		t.Fatalf("NextEvent after offer = %d, want a finite future cycle", next)
	}
	// The bound may be conservative (early) but never late: ticking only
	// at the bounds must still complete the request.
	for steps := 0; s.Busy() && steps < 1000; steps++ {
		s.Tick(now)
		if n := s.NextEvent(now); n > now {
			now = n
		} else {
			t.Fatalf("NextEvent(%d) = %d did not advance", now, n)
		}
		if now == math.MaxInt64 {
			break
		}
	}
	if len(*done) != 2 {
		t.Fatalf("event-driven ticking lost the request: %d completions", len(*done))
	}
}

// TestEngineSteadyStateAllocs pins the controller hot path at zero
// allocations per request once warm, for the bare pipeline (Simple) and
// every queued front-end: offer (the slot FIFO keeps its fixed buffer),
// grant, issue (CanIssue probing included), retire. Three source cores,
// so more than one slot cycles.
func TestEngineSteadyStateAllocs(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR3, 667)
	tm.TREFI = 0
	ctrls := map[string]func(*dram.Device, func(Completion)) Controller{
		"simple": func(d *dram.Device, done func(Completion)) Controller {
			return NewSimple(d, OpenPage, 4, done)
		},
		"memmax": func(d *dram.Device, done func(Completion)) Controller {
			return NewMemMax(d, DefaultMemMaxConfig(), done)
		},
		"dpq": func(d *dram.Device, done func(Completion)) Controller {
			return NewDPQ(d, DefaultDPQConfig(3), done)
		},
		"staged": func(d *dram.Device, done func(Completion)) Controller {
			return NewStaged(d, 3, 4, OpenPage, done)
		},
		"regulated": func(d *dram.Device, done func(Completion)) Controller {
			return NewRegulator(d, 3, 1, 4, OpenPage, done)
		},
	}
	for name, mk := range ctrls {
		mk := mk
		t.Run(name, func(t *testing.T) {
			completions := 0
			s := mk(dram.MustNewDevice(tm), func(Completion) { completions++ })
			p := req(1, 0, 5, 0, noc.Read, 8, false)
			now := int64(0)
			runOne := func() {
				p.SrcCore = (p.SrcCore + 1) % 3
				p.Class = noc.Class(p.SrcCore) // MemMax maps classes, not cores, to threads
				for !s.Offer(p, now) {
					s.Tick(now)
					now++
				}
				want := completions + 1
				for completions < want {
					s.Tick(now)
					now++
				}
			}
			for i := 0; i < 3; i++ {
				runOne() // warm the reqState free-list
			}
			if avg := testing.AllocsPerRun(200, runOne); avg != 0 {
				t.Errorf("controller steady state allocates %.2f per request, want 0", avg)
			}
		})
	}
}

// TestQueuedPopClearsVacatedEntry: a granted packet goes back to the
// system's pool at completion, so nothing downstream of that release may
// still hold its pointer — including the slot FIFO's backing array past
// its length, where a re-slice pop used to leave it.
func TestQueuedPopClearsVacatedEntry(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR3, 667)
	var done []Completion
	m := NewMemMax(dram.MustNewDevice(tm), DefaultMemMaxConfig(), func(c Completion) { done = append(done, c) })
	var pkts []*noc.Packet
	for i := int64(0); i < 12; i++ {
		p := req(i+1, int(i)%4, 5, int(i)*8, noc.Read, 8, false)
		p.Class = noc.Class(i % 3)
		pkts = append(pkts, p)
	}
	drive(t, m, pkts, &done, 5000)
	if len(done) != len(pkts) || m.backlog != 0 {
		t.Fatalf("completed %d of %d, backlog %d", len(done), len(pkts), m.backlog)
	}
	for slot, fifo := range m.queues {
		if cap(fifo) != slotDepth {
			t.Errorf("slot %d: FIFO capacity %d, want the fixed depth %d", slot, cap(fifo), slotDepth)
		}
		for i, p := range fifo[:cap(fifo)] {
			if p != nil {
				t.Errorf("slot %d entry %d still points at drained packet %v", slot, i, p)
			}
		}
	}
}
