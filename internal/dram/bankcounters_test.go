package dram

import "testing"

// TestBankCountersBreakdown drives a hand-written command sequence and
// checks the per-bank observability breakdown: activates, reads/writes,
// row hits (column commands beyond the first per activation), explicit
// precharges and auto-precharges, each attributed to the right bank.
func TestBankCountersBreakdown(t *testing.T) {
	tm := MustSpeed(DDR2, 333)
	d := MustNewDevice(tm)

	// Bank 0: ACT, three reads to the open row (two hits), explicit PRE.
	now := int64(0)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 3}, now)
	now += tm.TRCD
	for i := 0; i < 3; i++ {
		issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 3, Col: i * 8, BL: 8}, now)
		now += BurstCycles(8)
	}
	if now < tm.TRAS {
		now = tm.TRAS
	}
	now += tm.TRTP + BurstCycles(8) // clear of tRAS and read-to-precharge
	issueAt(t, d, Command{Kind: CmdPrecharge, Bank: 0, Row: 3}, now)

	// Bank 1: ACT, one write with auto-precharge (no hit).
	now += tm.TRP
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 9}, now)
	now += tm.TRCD
	issueAt(t, d, Command{Kind: CmdWrite, Bank: 1, Row: 9, Col: 0, BL: 8, AutoPrecharge: true}, now)
	d.Sync(now + 1000) // retire the auto-precharge

	pb := d.BankCounters()
	if len(pb) != tm.Banks {
		t.Fatalf("BankCounters length %d, want %d banks", len(pb), tm.Banks)
	}
	want0 := BankCounters{Activates: 1, Reads: 3, RowHits: 2, Precharges: 1}
	if pb[0] != want0 {
		t.Errorf("bank 0 = %+v, want %+v", pb[0], want0)
	}
	want1 := BankCounters{Activates: 1, Writes: 1, AutoPre: 1}
	if pb[1] != want1 {
		t.Errorf("bank 1 = %+v, want %+v", pb[1], want1)
	}
	for i := 2; i < len(pb); i++ {
		if pb[i] != (BankCounters{}) {
			t.Errorf("untouched bank %d has counts %+v", i, pb[i])
		}
	}

	// The snapshot is a copy: mutating it must not alter the device.
	pb[0].Reads = 99
	if d.BankCounters()[0].Reads != 3 {
		t.Error("BankCounters snapshot aliases device state")
	}

	// The per-bank breakdown must sum to the aggregate Stats counters.
	st := d.Stats()
	var acts, reads, writes, pres, aps int64
	for _, b := range d.BankCounters() {
		acts += b.Activates
		reads += b.Reads
		writes += b.Writes
		pres += b.Precharges
		aps += b.AutoPre
	}
	if acts != st.Activates || reads != st.Reads || writes != st.Writes ||
		pres != st.Precharges || aps != st.AutoPre {
		t.Errorf("per-bank sums (%d,%d,%d,%d,%d) disagree with Stats %+v",
			acts, reads, writes, pres, aps, st)
	}
}
