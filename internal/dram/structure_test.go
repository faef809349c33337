package dram

import "testing"

// The deep-DRAM structure rules: DDR4's bank groups select the
// long/short tRRD/tCCD pairs by whether consecutive commands share a
// group, and subarray mode (SALP/MASA-lite) lets one bank hold several
// open rows with per-subarray activation overlap.

func TestBankGroupRRDSelectsLongShort(t *testing.T) {
	tm := MustSpeed(DDR4, 1200) // 16 banks, 4 groups: 0 and 4 share group 0
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	// Same group as the last ACT: the short spacing is not enough.
	sameGroup := Command{Kind: CmdActivate, Bank: 4, Row: 1}
	wantRefused(t, d, sameGroup, tm.TRRDS)
	wantRefused(t, d, sameGroup, tm.TRRDL-1)
	issueAt(t, d, sameGroup, tm.TRRDL)
	// Different group from the last ACT (bank 4): short spacing suffices.
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 1}, tm.TRRDL+tm.TRRDS)
}

func TestBankGroupCCDSelectsLongShort(t *testing.T) {
	tm := MustSpeed(DDR4, 1200)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 1}, tm.TRRDS)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 4, Row: 1}, tm.TRRDS*2)
	base := int64(40) // all three banks past tRCD, command bus idle
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, Col: 0, BL: 8}, base)
	// Bank 4 shares bank 0's group: tCCD_S is not enough, tCCD_L is.
	sameGroup := Command{Kind: CmdRead, Bank: 4, Row: 1, Col: 0, BL: 8}
	wantRefused(t, d, sameGroup, base+tm.TCCDS)
	issueAt(t, d, sameGroup, base+tm.TCCDL)
	// Bank 1 is in another group than the last CAS (bank 4): tCCD_S works.
	issueAt(t, d, Command{Kind: CmdRead, Bank: 1, Row: 1, Col: 0, BL: 8}, base+tm.TCCDL+tm.TCCDS)
}

func TestSubarrayActivationOverlap(t *testing.T) {
	tm := MustSpeed(DDR2, 333).WithSubarrays(4)
	d := MustNewDevice(tm)
	// Two rows of the same bank, landing in different subarrays: the
	// second ACT overlaps the first open row — the MASA point.
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 0}, 0)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, tm.TRRD)
	// A third row mapping to an already-open subarray (4 mod 4 = 0) is
	// refused like any ACT to an active buffer.
	wantRefused(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 4}, 2*tm.TRRD)

	// Column commands hit whichever subarray holds their row; the burst
	// gap keeps the data bus clean.
	gap := BurstCycles(8)
	base := tm.TRRD + tm.TRCD
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 0, Col: 0, BL: 8}, base)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, Col: 8, BL: 8}, base+gap)
	// A row whose subarray is idle has no open buffer to hit.
	wantRefused(t, d, Command{Kind: CmdRead, Bank: 0, Row: 2, Col: 0, BL: 8}, base+2*gap)

	if !d.RowOpen(0, 0, base+2*gap) || !d.RowOpen(0, 1, base+2*gap) {
		t.Fatal("both subarray rows should be open")
	}
}

func TestSubarrayPrechargeClosesOneBuffer(t *testing.T) {
	tm := MustSpeed(DDR2, 333).WithSubarrays(4)
	d := MustNewDevice(tm)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 0}, 0)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, tm.TRRD)
	// PRE's Row field selects the subarray; row 0's buffer closes, row 1's
	// stays open.
	pre := Command{Kind: CmdPrecharge, Bank: 0, Row: 0}
	wantRefused(t, d, pre, tm.TRAS-1)
	issueAt(t, d, pre, tm.TRAS)
	now := tm.TRAS + 1
	if d.RowOpen(0, 0, now) {
		t.Fatal("precharged subarray still open")
	}
	if !d.RowOpen(0, 1, now) {
		t.Fatal("sibling subarray closed by another subarray's precharge")
	}
	// OpenRow reports the (lowest) still-open subarray row for heuristics.
	if row, open := d.OpenRow(0, now); !open || row != 1 {
		t.Fatalf("OpenRow = (%d, %t), want (1, true)", row, open)
	}
}

func TestSubarrayOffIsClassicBank(t *testing.T) {
	// Subarrays <= 1 must behave exactly like the classic device: a
	// second ACT to the same bank is refused while any row is open.
	for _, subs := range []int{0, 1} {
		d := MustNewDevice(MustSpeed(DDR2, 333).WithSubarrays(subs))
		issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 0}, 0)
		wantRefused(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 10)
		// The row-addressed rules hold with one buffer too: a column
		// command must name the row the bank holds, and every row of the
		// bank is blocked by it.
		wantRefused(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, 10)
		issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 0, BL: 8}, 10)
		if open, blocked := d.BlockingRow(0, 5, 11); !blocked || open != 0 {
			t.Fatalf("subs=%d: BlockingRow(0, 5) = (%d, %t), want (0, true)", subs, open, blocked)
		}
	}
}

func TestGroupStructureOffOnFlatGenerations(t *testing.T) {
	// DDR1-3 and LPDDR3 carry no bank groups: the flat tCCD/tRRD apply
	// regardless of which banks the commands touch, exactly as before.
	for _, gen := range []Generation{DDR1, DDR2, DDR3, LPDDR3} {
		tm := MustSpeed(gen, DefaultClock(gen))
		if tm.BankGroups > 1 {
			t.Fatalf("%s: unexpected bank groups %d", gen, tm.BankGroups)
		}
		d := MustNewDevice(tm)
		issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
		wantRefused(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 1}, tm.TRRD-1)
		issueAt(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 1}, tm.TRRD)
	}
}
