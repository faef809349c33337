package memctrl

import (
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

func TestSchedulerStringParseRoundTrip(t *testing.T) {
	for _, sc := range Schedulers() {
		got, err := ParseScheduler(sc.String())
		if err != nil || got != sc {
			t.Errorf("ParseScheduler(%q) = %v, %v", sc.String(), got, err)
		}
		if !sc.Valid() {
			t.Errorf("%v should be valid", sc)
		}
	}
	if _, err := ParseScheduler("bogus"); err == nil {
		t.Error("ParseScheduler should reject unknown names")
	}
	if Scheduler(99).Valid() {
		t.Error("Scheduler(99) should be invalid")
	}
}

func TestDPQDrainsAndRotates(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	var done []Completion
	d := NewDPQ(dev, DPQConfig{Requestors: 4}, func(c Completion) { done = append(done, c) })
	var pkts []*noc.Packet
	for i := int64(0); i < 16; i++ {
		p := req(i+1, int(i)%4, int(i/4), 0, noc.Kind(i%2), 8, false)
		p.SrcCore = int(i) % 4
		pkts = append(pkts, p)
	}
	drive(t, d, pkts, &done, 20000)
	if len(done) != 16 {
		t.Fatalf("completions = %d, want 16", len(done))
	}
	if d.Grants() != 16 {
		t.Errorf("grants = %d, want 16", d.Grants())
	}
	// Closed page: every access auto-precharges, no explicit PRE needed.
	if st := dev.Stats(); st.Precharges != 0 || st.AutoPre == 0 {
		t.Errorf("closed-page stats = %+v", st)
	}
}

func TestDPQRotationBoundsInterference(t *testing.T) {
	// With N requestors and rotation to the tail after every grant, a
	// request at own-queue position 1 must be granted within N grants.
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	const n = 4
	var grants []int64
	var done []Completion
	d := NewDPQ(dev, DPQConfig{Requestors: n}, func(c Completion) {
		grants = append(grants, c.Pkt.ID)
		done = append(done, c)
	})
	// Flood cores 0..2 with 4 requests each, then one request from core 3.
	var pkts []*noc.Packet
	id := int64(1)
	for i := 0; i < 4; i++ {
		for core := 0; core < n-1; core++ {
			p := req(id, core, i, 0, noc.Read, 8, false)
			p.SrcCore = core
			pkts = append(pkts, p)
			id++
		}
	}
	victim := req(id, n-1, 0, 0, noc.Read, 8, false)
	victim.SrcCore = n - 1
	pkts = append(pkts, victim)
	drive(t, d, pkts, &done, 40000)
	pos := -1
	for i, g := range grants {
		if g == victim.ID {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("victim never completed")
	}
	// Victim is at position 1 of its own queue: at most n-1 foreign grants
	// interpose, so it completes within the first n grants.
	if pos >= n {
		t.Errorf("victim completed as grant %d, rotation bound is %d", pos+1, n)
	}
}

func TestDPQAdmitHookReportsFacts(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	d := NewDPQ(dev, DPQConfig{Requestors: 2}, func(Completion) {})
	type admit struct {
		id         int64
		beats, pos int
		occ        int
		now        int64
	}
	var admits []admit
	var completes []int64
	d.OnAdmit = func(id int64, beats, queuePos, engineOcc int, now int64) {
		admits = append(admits, admit{id, beats, queuePos, engineOcc, now})
	}
	d.OnComplete = func(id int64, at int64) { completes = append(completes, id) }
	a := req(1, 0, 1, 0, noc.Read, 8, false)
	b := req(2, 0, 2, 0, noc.Read, 16, false)
	a.SrcCore, b.SrcCore = 0, 0
	if !d.Offer(a, 5) || !d.Offer(b, 5) {
		t.Fatal("offers refused")
	}
	if len(admits) != 2 {
		t.Fatalf("admits = %d, want 2", len(admits))
	}
	if admits[0] != (admit{1, 8, 1, 0, 5}) {
		t.Errorf("first admit = %+v", admits[0])
	}
	if admits[1] != (admit{2, 16, 2, 0, 5}) {
		t.Errorf("second admit = %+v", admits[1])
	}
	for now := int64(5); now < 600; now++ {
		d.Tick(now)
	}
	if len(completes) != 2 || completes[0] != 1 || completes[1] != 2 {
		t.Fatalf("completes = %v, want [1 2]", completes)
	}
}

// TestDPQBackpressureAndNextEvent: a full FIFO refuses until the first
// grant makes room; a backlog asks for the next cycle only while the
// depth-1 pipeline has room, sleeps on the engine's bound while it is
// full, and is granted in the first tick after it frees.
func TestDPQBackpressureAndNextEvent(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	d := NewDPQ(dev, DPQConfig{Requestors: 1}, func(Completion) {})
	d.shrink(2)
	if d.NextEvent(10) <= 10 {
		t.Fatal("idle NextEvent must be in the future")
	}
	if !d.Offer(req(1, 0, 1, 0, noc.Read, 8, false), 0) || !d.Offer(req(2, 0, 2, 0, noc.Read, 8, false), 0) {
		t.Fatal("offers refused")
	}
	third := req(3, 0, 3, 0, noc.Read, 8, false)
	if d.Accepts(third) || d.Offer(third, 0) {
		t.Fatal("third offer should be refused (depth 2)")
	}
	if !d.CanGrant() || d.NextEvent(0) != 1 {
		t.Fatalf("backlog with an empty pipeline: CanGrant %v, NextEvent = %d, want now+1", d.CanGrant(), d.NextEvent(0))
	}
	d.Tick(0) // grants request 1, which fills the pipeline
	if !d.Accepts(third) {
		t.Fatal("the grant popped a slot but the third offer is still refused")
	}
	if d.backlog != 1 || d.CanGrant() {
		t.Fatalf("after the first grant: backlog %d, CanGrant %v", d.backlog, d.CanGrant())
	}
	// Pipeline full: the engine's bound decides, and following it must
	// reach the cycle the slot frees, with the grant in the very next tick.
	now := int64(0)
	for !d.CanGrant() {
		next := d.NextEvent(now)
		if next != d.eng.nextEvent(now) || next <= now {
			t.Fatalf("cycle %d: backlog behind a full pipeline: NextEvent = %d, engine bound %d", now, next, d.eng.nextEvent(now))
		}
		if now = next; now > 1000 {
			t.Fatal("the pipeline never freed")
		}
		d.Tick(now)
	}
	if d.NextEvent(now) != now+1 {
		t.Fatalf("slot freed at %d: NextEvent = %d, want now+1", now, d.NextEvent(now))
	}
	d.Tick(now + 1)
	if d.Grants() != 2 || d.backlog != 0 {
		t.Fatalf("first tick after the slot freed: %d grants, backlog %d", d.Grants(), d.backlog)
	}
}

func TestRegulatorEnforcesBudget(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	var done []Completion
	r := NewRegulator(dev, 2, 8, 4, OpenPage, func(c Completion) { done = append(done, c) })
	// A 16-beat budget: two requests per (core, bank) and window, so the
	// hammering core needs several windows.
	const budget = 16
	r.budget = budget
	// Shadow-audit the invariant through the hook.
	usage := map[[2]int]int64{}
	window := int64(0)
	r.OnAdmit = func(core, bank, beats int, now int64) {
		if w := now / RegulatorWindow; w != window {
			window = w
			usage = map[[2]int]int64{}
		}
		k := [2]int{core, bank}
		usage[k] += int64(beats)
		if usage[k] > budget {
			t.Errorf("core %d bank %d used %d beats in window %d, budget %d",
				core, bank, usage[k], window, budget)
		}
	}
	// Core 0 hammers bank 0 (same row: no conflict cost), core 1 spreads.
	var pkts []*noc.Packet
	for i := int64(0); i < 8; i++ {
		p := req(i+1, 0, 1, int(i)*8, noc.Read, 8, false)
		p.SrcCore = 0
		pkts = append(pkts, p)
	}
	for i := int64(8); i < 12; i++ {
		p := req(i+1, int(i)%4, 1, 0, noc.Read, 8, false)
		p.SrcCore = 1
		pkts = append(pkts, p)
	}
	drive(t, r, pkts, &done, 40000)
	if len(done) != 12 {
		t.Fatalf("completions = %d, want 12", len(done))
	}
	// 64 beats against a 16-beat budget needs at least 3 window rolls.
	if r.curWindow < 3 {
		t.Errorf("drained in window %d, want >= 3", r.curWindow)
	}
	if r.Stats.Throttled == 0 {
		t.Error("hammering one bank past its budget should throttle")
	}
}

// TestRegulatorBudgetRaisedToLargestRequest: a workload whose largest
// request is 512 beats raises the 256-beat budget to 512, and such a
// request, which would never fit the fixed budget, completes.
func TestRegulatorBudgetRaisedToLargestRequest(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	if got := NewRegulator(dev, 1, 8, 2, OpenPage, func(Completion) {}).Budget(); got != regulatorBudget {
		t.Fatalf("budget with 8-beat requests = %d, want the fixed %d", got, regulatorBudget)
	}
	var done []Completion
	r := NewRegulator(dev, 1, 512, 2, OpenPage, func(c Completion) { done = append(done, c) })
	if got := r.Budget(); got != 512 {
		t.Fatalf("budget with 512-beat requests = %d, want 512", got)
	}
	p := req(1, 0, 1, 0, noc.Read, 512, false)
	drive(t, r, []*noc.Packet{p}, &done, 20000)
	if len(done) != 1 {
		t.Fatalf("oversized request never completed: budget not raised")
	}
}

func TestStagedServesLightBeforeHeavy(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	var done []Completion
	s := NewStaged(dev, 2, 1, OpenPage, func(c Completion) { done = append(done, c) })
	// Core 0 is heavy (6 outstanding > threshold 4); core 1 offers one.
	var pkts []*noc.Packet
	for i := int64(0); i < 6; i++ {
		p := req(i+1, int(i)%4, 1, 0, noc.Read, 8, false)
		p.SrcCore = 0
		pkts = append(pkts, p)
	}
	light := req(7, 0, 1, 0, noc.Read, 8, false)
	light.SrcCore = 1
	for _, p := range pkts {
		if !s.Offer(p, 0) {
			t.Fatal("offer refused")
		}
	}
	if !s.Offer(light, 0) {
		t.Fatal("light offer refused")
	}
	for now := int64(0); now < 4000 && len(done) < 7; now++ {
		s.Tick(now)
	}
	if len(done) != 7 {
		t.Fatalf("completions = %d, want 7", len(done))
	}
	// The light core's request (offered last) must be granted first.
	if done[0].Pkt.ID != 7 {
		t.Errorf("first completion = %d, want the light core's request 7", done[0].Pkt.ID)
	}
	if light := s.Grants() - s.Stats.HeavyGrants; light == 0 || s.Stats.HeavyGrants == 0 {
		t.Errorf("%d grants, %d heavy: want both classes exercised", s.Grants(), s.Stats.HeavyGrants)
	}
	if s.Stats.Reclassifications == 0 {
		t.Error("core 0 should have been reclassified heavy (and back)")
	}
}

func TestStagedDrainsMixedTraffic(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR3, 667)
	dev := dram.MustNewDevice(tm)
	var done []Completion
	s := NewStaged(dev, 7, 4, OpenPage, func(c Completion) { done = append(done, c) })
	var pkts []*noc.Packet
	for i := int64(0); i < 40; i++ {
		p := req(i+1, int(i)%8, int(i%5), 0, noc.Kind(i%2), 8, false)
		p.SrcCore = int(i % 7)
		pkts = append(pkts, p)
	}
	drive(t, s, pkts, &done, 20000)
	if len(done) != 40 {
		t.Fatalf("completions = %d, want 40", len(done))
	}
	for c := range s.outstanding {
		if s.outstanding[c] != 0 {
			t.Errorf("core %d outstanding = %d after drain", c, s.outstanding[c])
		}
	}
}

// TestQueuedProtocol pins what the four scheduling front-ends share: a
// full slot refuses Offer, the backlog is exactly the offered requests not
// yet granted into the pipeline, and while it is non-zero the controller
// is Busy. A backlog with room in the pipeline asks to be ticked next
// cycle, and that tick grants (unless every head is over budget, which
// the regulator counts); a backlog behind a full pipeline sleeps on the
// engine's bound.
func TestQueuedProtocol(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	const depth = 2
	none := func() int64 { return 0 }
	ctrls := map[string]func(*dram.Device, func(Completion)) (Controller, *queued, func() int64){
		"memmax": func(d *dram.Device, done func(Completion)) (Controller, *queued, func() int64) {
			m := NewMemMax(d, MemMaxConfig{PipelineDepth: 2}, done)
			return m, &m.queued, none
		},
		"dpq": func(d *dram.Device, done func(Completion)) (Controller, *queued, func() int64) {
			q := NewDPQ(d, DPQConfig{Requestors: 4}, done)
			return q, &q.queued, none
		},
		"staged": func(d *dram.Device, done func(Completion)) (Controller, *queued, func() int64) {
			s := NewStaged(d, 4, 2, OpenPage, done)
			return s, &s.queued, none
		},
		"regulated": func(d *dram.Device, done func(Completion)) (Controller, *queued, func() int64) {
			r := NewRegulator(d, 4, 8, 2, OpenPage, done)
			r.budget = 8 // one request per (core, bank) and window
			return r, &r.queued, func() int64 { return r.Stats.Throttled }
		},
	}
	for name, mk := range ctrls {
		mk := mk
		t.Run(name, func(t *testing.T) {
			completed := 0
			ctrl, q, throttled := mk(dram.MustNewDevice(tm), func(Completion) { completed++ })
			q.shrink(depth)
			// Twelve media reads from cores 2 and 3 (MemMax threads 2 and
			// 3), offered as fast as the depth-2 slots take them.
			var pkts []*noc.Packet
			for i := int64(0); i < 12; i++ {
				p := req(i+1, int(i)%4, int(i)%3, 0, noc.Read, 8, false)
				p.SrcCore = 2 + int(i/3)%2
				pkts = append(pkts, p)
			}
			offered := 0
			for offered < depth+1 && ctrl.Offer(pkts[offered], 0) {
				offered++
			}
			if offered != depth {
				t.Fatalf("one slot took %d back-to-back offers, want its depth %d", offered, depth)
			}
			fullPipeline := 0
			for now := int64(0); completed < len(pkts); now++ {
				if now > 20000 {
					t.Fatalf("did not drain: %d offered, %d completed", offered, completed)
				}
				for offered < len(pkts) && ctrl.Offer(pkts[offered], now) {
					offered++
				}
				due, backlog, lost := ctrl.CanGrant(), q.backlog, throttled()
				ctrl.Tick(now)
				if due && q.backlog == backlog && throttled() == lost {
					t.Fatalf("cycle %d: a grant was possible and the tick neither granted nor counted a throttle", now)
				}
				granted := completed + q.eng.occupancy()
				if q.backlog != offered-granted {
					t.Fatalf("cycle %d: backlog = %d, want %d offered - %d granted", now, q.backlog, offered, granted)
				}
				if q.backlog == 0 {
					continue
				}
				want := now + 1
				if !q.eng.canAdmit() {
					want = q.eng.nextEvent(now)
					fullPipeline++
				}
				if ctrl.CanGrant() != q.eng.canAdmit() || ctrl.NextEvent(now) != want {
					t.Fatalf("cycle %d: backlog %d, pipeline admits %v: CanGrant() = %v, NextEvent = %d, want %d",
						now, q.backlog, q.eng.canAdmit(), ctrl.CanGrant(), ctrl.NextEvent(now), want)
				}
			}
			if fullPipeline == 0 {
				t.Error("no cycle had a backlog behind a full pipeline: the sleep went unexercised")
			}
			if q.backlog != 0 || q.eng.busy() {
				t.Fatalf("drained controller reports backlog %d, busy %v", q.backlog, q.eng.busy())
			}
		})
	}
}

// shrink re-slices every slot FIFO to depth entries: hasRoom compares
// against the carved capacity, so a test fills a slot in depth offers
// instead of slotDepth.
func (q *queued) shrink(depth int) {
	for i := range q.queues {
		q.queues[i] = q.queues[i][:0:depth]
	}
}

// TestFixedSizes pins the controllers' fixed sizes, as constants and as
// the controllers build them. None of them is in sweep.Fingerprint, so a
// change moves simulated results under unchanged store keys: whoever
// changes one must bump store.formatVersion.
func TestFixedSizes(t *testing.T) {
	dev := dram.MustNewDevice(dram.MustSpeed(dram.DDR2, 333))
	done := func(Completion) {}
	checks := []struct {
		name      string
		got, want int64
	}{
		{"slotDepth", slotDepth, 32},
		{"DPQ slot capacity", int64(cap(NewDPQ(dev, DefaultDPQConfig(3), done).queues[2])), 32},
		{"RegulatorWindow", RegulatorWindow, 1024},
		{"regulatorBudget", regulatorBudget, 256},
		{"Regulator budget", NewRegulator(dev, 3, 8, 4, OpenPage, done).Budget(), 256},
		{"stagedThreshold", stagedThreshold, 4},
		{"memMaxThreads", memMaxThreads, 4},
		{"MemMax threads", int64(len(NewMemMax(dev, DefaultMemMaxConfig(), done).queues)), 4},
		{"memMaxDataFlits", memMaxDataFlits, 32},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
}
