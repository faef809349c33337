package dram

import (
	"testing"
	"testing/quick"
)

// issueAt fails the test if the command is not accepted at now.
func issueAt(t *testing.T, d *Device, cmd Command, now int64) DataWindow {
	t.Helper()
	w, err := d.Issue(cmd, now)
	if err != nil {
		t.Fatalf("Issue(%v, %d): %v", cmd, now, err)
	}
	return w
}

// wantRefused fails the test if the command is accepted at now.
func wantRefused(t *testing.T, d *Device, cmd Command, now int64) {
	t.Helper()
	if d.CanIssue(cmd, now) {
		t.Fatalf("CanIssue(%v, %d) = true, want refusal", cmd, now)
	}
	if _, err := d.Issue(cmd, now); err == nil {
		t.Fatalf("Issue(%v, %d) accepted, want refusal", cmd, now)
	}
}

func TestActivateThenReadRespectsTRCD(t *testing.T) {
	tm := MustSpeed(DDR2, 333)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 7}, 0)
	rd := Command{Kind: CmdRead, Bank: 0, Row: 7, Col: 0, BL: 8}
	wantRefused(t, d, rd, tm.TRCD-1)
	w := issueAt(t, d, rd, tm.TRCD)
	if w.Start != tm.TRCD+tm.CL {
		t.Errorf("data start = %d, want %d", w.Start, tm.TRCD+tm.CL)
	}
	if w.Cycles() != BurstCycles(8) {
		t.Errorf("data cycles = %d, want %d", w.Cycles(), BurstCycles(8))
	}
}

func TestReadToIdleBankRefused(t *testing.T) {
	d := MustNewDevice(MustSpeed(DDR1, 200))
	wantRefused(t, d, Command{Kind: CmdRead, Bank: 0, BL: 8}, 0)
	wantRefused(t, d, Command{Kind: CmdWrite, Bank: 0, BL: 8}, 0)
	wantRefused(t, d, Command{Kind: CmdPrecharge, Bank: 0}, 0)
}

func TestOneCommandPerCycle(t *testing.T) {
	d := MustNewDevice(MustSpeed(DDR2, 333))
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	wantRefused(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 1}, 0)
}

func TestTRRDBetweenActivates(t *testing.T) {
	tm := MustSpeed(DDR3, 800)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	wantRefused(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 1}, tm.TRRD-1)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 1}, tm.TRRD)
}

func TestPrechargeRespectsTRASAndTRP(t *testing.T) {
	tm := MustSpeed(DDR2, 400)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 2, Row: 3}, 0)
	wantRefused(t, d, Command{Kind: CmdPrecharge, Bank: 2, Row: 3}, tm.TRAS-1)
	issueAt(t, d, Command{Kind: CmdPrecharge, Bank: 2, Row: 3}, tm.TRAS)
	act := Command{Kind: CmdActivate, Bank: 2, Row: 9}
	wantRefused(t, d, act, tm.TRAS+tm.TRP-1)
	// tRC may extend past tRAS+tRP.
	at := tm.TRAS + tm.TRP
	if tm.TRC > at {
		at = tm.TRC
	}
	issueAt(t, d, act, at)
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	tm := MustSpeed(DDR3, 800)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	w := issueAt(t, d, Command{Kind: CmdWrite, Bank: 0, Row: 1, BL: 8}, tm.TRCD)
	preOK := w.End + tm.TWR
	wantRefused(t, d, Command{Kind: CmdPrecharge, Bank: 0, Row: 1}, preOK-1)
	issueAt(t, d, Command{Kind: CmdPrecharge, Bank: 0, Row: 1}, preOK)
}

func TestTCCDBetweenColumnCommands(t *testing.T) {
	tm := MustSpeed(DDR3, 667) // tCCD = 4
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, tm.TRCD)
	wantRefused(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, tm.TRCD+tm.TCCD-1)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, tm.TRCD+tm.TCCD)
}

func TestWriteToReadTurnaround(t *testing.T) {
	tm := MustSpeed(DDR2, 333)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	w := issueAt(t, d, Command{Kind: CmdWrite, Bank: 0, Row: 1, BL: 8}, tm.TRCD)
	rdOK := w.End + tm.TWTR
	wantRefused(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, rdOK-1)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, rdOK)
}

func TestReadToWriteBusTurnaround(t *testing.T) {
	tm := MustSpeed(DDR2, 400)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	w := issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, tm.TRCD)
	// Write data may start no earlier than read data end + tRTW.
	earliest := w.End + tm.TRTW - tm.CWL
	wantRefused(t, d, Command{Kind: CmdWrite, Bank: 0, Row: 1, BL: 8}, earliest-1)
	issueAt(t, d, Command{Kind: CmdWrite, Bank: 0, Row: 1, BL: 8}, earliest)
}

func TestAutoPrechargeClosesBank(t *testing.T) {
	tm := MustSpeed(DDR2, 333)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 5}, 0)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 1, Row: 5, BL: 8, AutoPrecharge: true}, tm.TRCD)
	// Further CAS to the bank must be refused (AP pending).
	wantRefused(t, d, Command{Kind: CmdRead, Bank: 1, Row: 5, BL: 8}, tm.TRCD+tm.TCCD)
	// The AP fires at preAllowedAt = max(tRAS after ACT, CAS+tRTP+burst);
	// after +tRP the bank accepts a new ACTIVATE.
	apStart := tm.TRCD + tm.TRTP + BurstCycles(8)
	if tm.TRAS > apStart {
		apStart = tm.TRAS
	}
	ready := apStart + tm.TRP
	act := Command{Kind: CmdActivate, Bank: 1, Row: 6}
	wantRefused(t, d, act, ready-1)
	issueAt(t, d, act, ready)
	if got := d.Stats().AutoPre; got != 1 {
		t.Errorf("AutoPre = %d, want 1", got)
	}
	if got := d.Stats().Precharges; got != 0 {
		t.Errorf("explicit Precharges = %d, want 0", got)
	}
}

func TestAutoPrechargeAfterWriteUsesWriteRecovery(t *testing.T) {
	tm := MustSpeed(DDR3, 800)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	w := issueAt(t, d, Command{Kind: CmdWrite, Bank: 0, Row: 1, BL: 8, AutoPrecharge: true}, tm.TRCD)
	// The paper: tWR+tRP = 23 cycles at 800 MHz to deactivate after write.
	ready := w.End + tm.TWR + tm.TRP
	act := Command{Kind: CmdActivate, Bank: 0, Row: 2}
	wantRefused(t, d, act, ready-1)
	issueAt(t, d, act, ready)
}

func TestRefreshRequiresAllBanksIdle(t *testing.T) {
	tm := MustSpeed(DDR2, 266)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	wantRefused(t, d, Command{Kind: CmdRefresh}, tm.TRAS)
	issueAt(t, d, Command{Kind: CmdPrecharge, Bank: 0, Row: 1}, tm.TRAS)
	ref := tm.TRAS + tm.TRP
	issueAt(t, d, Command{Kind: CmdRefresh}, ref)
	act := Command{Kind: CmdActivate, Bank: 0, Row: 1}
	wantRefused(t, d, act, ref+tm.TRFC-1)
	issueAt(t, d, act, ref+tm.TRFC)
	if d.Stats().Refreshes != 1 {
		t.Errorf("Refreshes = %d, want 1", d.Stats().Refreshes)
	}
}

func TestBLModeEnforcement(t *testing.T) {
	tm := MustSpeed(DDR2, 333).WithDeviceBL(4)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	wantRefused(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, tm.TRCD)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 4}, tm.TRCD)
}

func TestOTFAcceptsBL4AndBL8(t *testing.T) {
	tm := MustSpeed(DDR3, 667)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 4}, tm.TRCD)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, tm.TRCD+tm.TCCD)
	wantRefused(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 2}, tm.TRCD+2*tm.TCCD)
}

func TestUtilizationAccounting(t *testing.T) {
	tm := MustSpeed(DDR1, 200)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, tm.TRCD)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, tm.TRCD+BurstCycles(8))
	want := float64(2*BurstCycles(8)) / 100.0
	if got := d.Utilization(100); got != want {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
	if d.Utilization(0) != 0 {
		t.Error("Utilization(0) should be 0")
	}
}

func TestOpenRowTracking(t *testing.T) {
	tm := MustSpeed(DDR2, 333)
	d := MustNewDevice(tm)
	if _, open := d.OpenRow(0, 0); open {
		t.Fatal("bank 0 should start closed")
	}
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 42}, 0)
	if row, open := d.OpenRow(0, 1); !open || row != 42 {
		t.Fatalf("OpenRow = (%d,%v), want (42,true)", row, open)
	}
	issueAt(t, d, Command{Kind: CmdPrecharge, Bank: 0, Row: 42}, tm.TRAS)
	if _, open := d.OpenRow(0, tm.TRAS+1); open {
		t.Fatal("bank 0 should be closed after PRE")
	}
	if _, blocked := d.BlockingRow(0, 43, tm.TRAS+tm.TRP); blocked {
		t.Fatal("precharged row buffer still blocks another row")
	}
}

func TestRowActivateReadyAtEstimates(t *testing.T) {
	tm := MustSpeed(DDR3, 800)
	d := MustNewDevice(tm)
	if got := d.RowActivateReadyAt(0, 1, 5); got != 5 {
		t.Fatalf("idle RowActivateReadyAt = %d, want now", got)
	}
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 10)
	// Active buffer: needs PRE at earliest tRAS, then tRP, and tRC.
	want := 10 + max(tm.TRAS+tm.TRP, tm.TRC)
	if got := d.RowActivateReadyAt(0, 2, 11); got != want {
		t.Fatalf("active RowActivateReadyAt = %d, want %d", got, want)
	}
	// The hints are conservative bounds on the real gates: the PRE and the
	// re-ACT are refused one cycle before them and legal at them.
	pre := d.RowPrechargeReadyAt(0, 2, 11)
	wantRefused(t, d, Command{Kind: CmdPrecharge, Bank: 0, Row: 2}, pre-1)
	issueAt(t, d, Command{Kind: CmdPrecharge, Bank: 0, Row: 2}, pre)
	act := Command{Kind: CmdActivate, Bank: 0, Row: 2}
	wantRefused(t, d, act, want-1)
	issueAt(t, d, act, want)
}

func TestTimeMonotonicPanics(t *testing.T) {
	d := MustNewDevice(MustSpeed(DDR1, 133))
	d.CanIssue(Command{Kind: CmdActivate, Bank: 0, Row: 1}, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on time going backwards")
		}
	}()
	d.CanIssue(Command{Kind: CmdActivate, Bank: 0, Row: 1}, 5)
}

// TestPropertyGreedySchedulerNeverViolates drives the device with a greedy
// open-page controller over random request streams and checks the
// fundamental invariants: CanIssue==true implies Issue succeeds, data
// windows never overlap, and every request eventually completes.
func TestPropertyGreedySchedulerNeverViolates(t *testing.T) {
	type req struct {
		Bank  uint8
		Row   uint8
		Write bool
	}
	f := func(seed int64, reqs []req) bool {
		tm := MustSpeed(DDR3, 667)
		d := MustNewDevice(tm)
		if len(reqs) > 64 {
			reqs = reqs[:64]
		}
		var lastEnd int64 = -1
		now := int64(0)
		for _, r := range reqs {
			b := int(r.Bank) % tm.Banks
			row := int(r.Row)
			kind := CmdRead
			if r.Write {
				kind = CmdWrite
			}
			// Greedy: precharge if conflict, activate if closed, then CAS.
			for deadline := now + 10000; ; now++ {
				if now > deadline {
					t.Logf("request %+v starved", r)
					return false
				}
				open, isOpen := d.OpenRow(b, now)
				var cmd Command
				switch {
				case isOpen && open == row:
					cmd = Command{Kind: kind, Bank: b, Row: row, BL: 8}
				case isOpen:
					cmd = Command{Kind: CmdPrecharge, Bank: b, Row: row}
				default:
					cmd = Command{Kind: CmdActivate, Bank: b, Row: row}
				}
				if !d.CanIssue(cmd, now) {
					continue
				}
				w, err := d.Issue(cmd, now)
				if err != nil {
					t.Logf("CanIssue true but Issue failed: %v", err)
					return false
				}
				if cmd.IsCAS() {
					if w.Start <= lastEnd-1 && w.Start < lastEnd {
						t.Logf("data window overlap: start %d < prev end %d", w.Start, lastEnd)
						return false
					}
					if w.Start < lastEnd {
						return false
					}
					lastEnd = w.End
					now++
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFourActivateWindow(t *testing.T) {
	tm := MustSpeed(DDR3, 800) // tFAW = 24, tRRD = 6
	d := MustNewDevice(tm)
	var acts []int64
	now := int64(0)
	for b := 0; b < 4; b++ {
		for !d.CanIssue(Command{Kind: CmdActivate, Bank: b, Row: 1}, now) {
			now++
		}
		issueAt(t, d, Command{Kind: CmdActivate, Bank: b, Row: 1}, now)
		acts = append(acts, now)
		now++
	}
	// The fifth ACT must wait until tFAW after the first.
	fifth := Command{Kind: CmdActivate, Bank: 4, Row: 1}
	wantRefused(t, d, fifth, acts[0]+tm.TFAW-1)
	issueAt(t, d, fifth, acts[0]+tm.TFAW)
}

func TestFAWDisabledOnDDR1(t *testing.T) {
	tm := MustSpeed(DDR1, 200)
	if tm.TFAW != 0 {
		t.Fatalf("DDR1 should not carry a tFAW, got %d", tm.TFAW)
	}
	d := MustNewDevice(tm)
	now := int64(0)
	for b := 0; b < 4; b++ {
		for !d.CanIssue(Command{Kind: CmdActivate, Bank: b % tm.Banks, Row: b}, now) {
			now++
		}
		if b < tm.Banks {
			issueAt(t, d, Command{Kind: CmdActivate, Bank: b, Row: 1}, now)
		}
		now++
	}
}
