package dram

import "fmt"

// Stats accumulates device activity counters used for the utilization
// metric (Table I/II) and the activity-based power model (Table V).
type Stats struct {
	Activates   int64
	Reads       int64
	Writes      int64
	Precharges  int64 // explicit PRE commands
	AutoPre     int64 // precharges triggered by AP tags
	Refreshes   int64
	DataCycles  int64 // clock cycles the data bus carried burst data
	BurstsBL    int64 // total burst beats transferred (for waste accounting)
	UsefulBeats int64 // beats the requester actually asked for (set by controllers)
}

// BankCounters is the per-bank command breakdown the observability layer
// exports: where the activates, row hits and conflicts actually landed.
// A RowHit is a column command to a row that already served one since its
// ACTIVATE (the first column access per activation paid tRCD and is not a
// hit). Precharges counts explicit PRE commands — the controller closes a
// row only on a conflict or a refresh drain — while AutoPre counts
// auto-precharges retired from column-command tags.
type BankCounters struct {
	Activates  int64 `json:"activates"`
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	RowHits    int64 `json:"rowHits"`
	Precharges int64 `json:"precharges"`
	AutoPre    int64 `json:"autoPrecharges"`
}

// Device is a cycle-level DDR SDRAM device. It is driven by absolute
// cycle numbers: callers ask CanIssue(cmd, now) and then Issue(cmd, now).
// Time must be non-decreasing across calls. At most one command may be
// issued per cycle (single command bus).
//
// The zero value is not usable; construct with NewDevice.
type Device struct {
	t Timing

	// bufs holds every row buffer: bank b owns the bufsPerBank entries
	// from bufs[b*bufsPerBank], and buf picks the one a row lives in. The
	// classic device has one buffer per bank; with Timing.Subarrays > 1
	// (SALP/MASA-lite) each subarray of a bank has its own.
	bufs        []bank
	bufsPerBank int

	now          int64
	lastCmdCycle int64
	lastCAS      int64
	lastCASBank  int // bank of the last CAS (-1: none); group-aware tCCD
	lastActAny   int64
	lastActBank  int      // bank of the last ACT (-1: none); group-aware tRRD
	actTimes     [4]int64 // rolling window of the last four ACTs (tFAW)
	readDataEnd  int64    // end cycle of the most recent read burst
	writeDataEnd int64    // end cycle of the most recent write burst
	busBusyUntil int64

	stats   Stats // all but the five command counts perBank holds
	perBank []BankCounters

	// Observer, when set, is invoked for every accepted command with its
	// data window (zero for non-column commands) — the hook behind the
	// timing-diagram renderer, the checked-mode conformance monitor, and
	// command-trace tests.
	Observer func(now int64, cmd Command, w DataWindow)

	fault Fault
}

// Fault selects a deliberately broken legality rule for mutation
// testing: the checked-mode test suite arms one, drives the simulator,
// and asserts the internal/check conformance monitor reports the
// resulting protocol breach. FaultNone (the zero value) is a fully
// conformant device.
type Fault int

const (
	FaultNone Fault = iota
	// FaultSkipTRCD drops the ACTIVATE-to-CAS spacing check, letting
	// controllers issue column commands into a still-opening row.
	FaultSkipTRCD
	// FaultSkipTFAW drops the four-activate-window check.
	FaultSkipTFAW
	// FaultSlowCAS refuses column commands until SlowCASGap cycles after
	// the previous one. Unlike the Skip faults it keeps every issued
	// command JEDEC-legal (the gate is strictly tighter than tCCD), so
	// the shadow timing monitor stays silent — only a latency-bound
	// monitor (the DPQ WCET check) can detect it. It models a device or
	// controller that is slow rather than wrong.
	FaultSlowCAS
)

// SlowCASGap is the column-to-column spacing FaultSlowCAS enforces —
// far beyond any analytic worst-case service time, so every queued
// request behind the first blows through its WCET deadline.
const SlowCASGap = 2048

// ParseFault maps a fault's command-line name (slow-cas, skip-trcd,
// skip-tfaw) to its value.
func ParseFault(name string) (Fault, error) {
	switch name {
	case "slow-cas":
		return FaultSlowCAS, nil
	case "skip-trcd":
		return FaultSkipTRCD, nil
	case "skip-tfaw":
		return FaultSkipTFAW, nil
	}
	return FaultNone, fmt.Errorf("dram: unknown fault %q", name)
}

// InjectFault arms one legality-rule fault, so a run can prove the
// conformance monitor has teeth: system.New arms Config.Fault with it
// (aanoc sim -inject-fault), and the mutation tests call it directly.
func (d *Device) InjectFault(f Fault) { d.fault = f }

// NewDevice constructs a device with all banks idle at cycle 0.
func NewDevice(t Timing) (*Device, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		t:            t,
		bufs:         make([]bank, t.Banks*t.RowBuffers()),
		bufsPerBank:  t.RowBuffers(),
		perBank:      make([]BankCounters, t.Banks),
		lastCmdCycle: -1,
		lastCAS:      -(1 << 30),
		lastCASBank:  -1,
		lastActAny:   -(1 << 30),
		lastActBank:  -1,
	}
	for i := range d.bufs {
		d.bufs[i].actTime = -(1 << 30)
	}
	for i := range d.actTimes {
		d.actTimes[i] = -(1 << 30)
	}
	return d, nil
}

// buf returns the row buffer a row of a bank lives in — the one place
// that knows where buffers are stored. The one-buffer case skips the
// row%n divide: profiled on a saturated memctrl.MemMax it was 22% of
// controller time (7% with the skip), +5% per request end to end.
func (d *Device) buf(bankIdx, row int) *bank {
	if d.bufsPerBank == 1 {
		return &d.bufs[bankIdx]
	}
	return &d.bufs[bankIdx*d.bufsPerBank+row%d.bufsPerBank]
}

// ccdFor returns the CAS-to-CAS spacing a column command to the bank
// must keep from the previous CAS: the flat tCCD, or the long/short
// group pair when the generation has bank groups.
func (d *Device) ccdFor(bankIdx int) int64 {
	if d.t.BankGroups > 1 && d.lastCASBank >= 0 {
		if d.t.GroupOf(bankIdx) == d.t.GroupOf(d.lastCASBank) {
			return d.t.TCCDL
		}
		return d.t.TCCDS
	}
	return d.t.TCCD
}

// rrdFor returns the ACT-to-ACT spacing an activate to the bank must
// keep from the previous ACT (flat tRRD, or tRRD_L/tRRD_S with groups).
func (d *Device) rrdFor(bankIdx int) int64 {
	if d.t.BankGroups > 1 && d.lastActBank >= 0 {
		if d.t.GroupOf(bankIdx) == d.t.GroupOf(d.lastActBank) {
			return d.t.TRRDL
		}
		return d.t.TRRDS
	}
	return d.t.TRRD
}

// MustNewDevice is NewDevice but panics on invalid timing. No product
// path calls it: it is kept as the test constructor of the dram,
// memctrl and check tests.
func MustNewDevice(t Timing) *Device {
	d, err := NewDevice(t)
	if err != nil {
		panic(err)
	}
	return d
}

// Timing returns the device's timing parameter set.
func (d *Device) Timing() Timing { return d.t }

// Stats returns a snapshot of the activity counters. The command totals
// are sums of the per-bank breakdown, which is where they are counted.
func (d *Device) Stats() Stats {
	s := d.stats
	for _, b := range d.perBank {
		s.Activates += b.Activates
		s.Reads += b.Reads
		s.Writes += b.Writes
		s.Precharges += b.Precharges
		s.AutoPre += b.AutoPre
	}
	return s
}

// BankCounters returns a snapshot of the per-bank command breakdown, one
// entry per bank in bank order.
func (d *Device) BankCounters() []BankCounters {
	out := make([]BankCounters, len(d.perBank))
	copy(out, d.perBank)
	return out
}

// AddUsefulBeats lets a controller record how many of the transferred
// burst beats carried data the requester actually asked for; the
// difference against BurstsBL is the granularity-mismatch waste (Fig. 2).
func (d *Device) AddUsefulBeats(n int64) { d.stats.UsefulBeats += n }

// Utilization returns data-bus busy cycles divided by total cycles, the
// paper's memory utilization metric.
func (d *Device) Utilization(totalCycles int64) float64 {
	if totalCycles <= 0 {
		return 0
	}
	return float64(d.stats.DataCycles) / float64(totalCycles)
}

// advance retires auto-precharges whose start time has been reached and
// settles completed precharges, bringing the device state up to now.
// Repeated calls within one cycle are no-ops: commands issued at now only
// schedule state changes strictly after now (tRP, tRFC and auto-precharge
// start times are all positive offsets), so the first call per cycle does
// all the settling and the hot paths that re-query state (RowOpen,
// CanIssue) skip the per-buffer walk.
func (d *Device) advance(now int64) {
	if now == d.now {
		return
	}
	if now < d.now {
		panic(fmt.Sprintf("dram: time went backwards (%d < %d)", now, d.now))
	}
	d.now = now
	for i := range d.bufs {
		b := &d.bufs[i]
		if b.apPending && now >= b.apStartAt {
			b.apPending = false
			b.state = BankPrecharging
			b.readyAt = b.apStartAt + d.t.TRP
			d.perBank[i/d.bufsPerBank].AutoPre++
		}
		b.settle(now)
	}
}

// Sync brings the device state up to cycle now, retiring any pending
// auto-precharges whose start time has been reached. Controllers call it
// once per cycle so device-internal events fire even on idle cycles.
func (d *Device) Sync(now int64) { d.advance(now) }

// OpenRow reports an open row of a bank, if any, at cycle now: the
// bank-aggregate view the refresh drain walks to close every buffer, one
// per cycle. With several buffers per bank the lowest-indexed open one is
// reported. A buffer with a pending auto-precharge whose start time has
// passed reports closed.
func (d *Device) OpenRow(bankIdx int, now int64) (row int, open bool) {
	d.advance(now)
	base := bankIdx * d.bufsPerBank
	for i := base; i < base+d.bufsPerBank; i++ {
		if b := &d.bufs[i]; b.state == BankActive {
			return b.openRow, true
		}
	}
	return 0, false
}

// RowOpen reports whether the specific row of a bank is open in its row
// buffer at cycle now. Rows open in sibling subarrays of the same bank
// are visible simultaneously.
func (d *Device) RowOpen(bankIdx, row int, now int64) bool {
	d.advance(now)
	b := d.buf(bankIdx, row)
	return b.state == BankActive && b.openRow == row
}

// BlockingRow reports the row currently occupying the row buffer that
// the given row needs, when it is a different row — the precharge target
// of a row conflict. Only the row's own buffer can block; rows open in
// sibling subarrays do not conflict.
func (d *Device) BlockingRow(bankIdx, row int, now int64) (openRow int, blocked bool) {
	d.advance(now)
	b := d.buf(bankIdx, row)
	if b.state == BankActive && b.openRow != row {
		return b.openRow, true
	}
	return 0, false
}

// RowAutoPrechargePending reports whether the row buffer serving the
// given row has an auto-precharge scheduled but not yet fired.
func (d *Device) RowAutoPrechargePending(bankIdx, row int, now int64) bool {
	d.advance(now)
	return d.buf(bankIdx, row).apPending
}

// RowActivateReadyAt returns a conservative lower bound on the earliest
// cycle an ACTIVATE of the row could be legal: its buffer's own
// constraints (precharge completion, tRC, and the precharge an open row
// or pending auto-precharge still needs) folded with the cross-bank tRRD
// and tFAW windows. "Conservative" means never later than the true
// earliest legal cycle: event-queue controllers may wake at the returned
// cycle and find the command still refused (a harmless no-op probe), but
// never sleep through a cycle where it would have been accepted.
func (d *Device) RowActivateReadyAt(bankIdx, row int, now int64) int64 {
	d.advance(now)
	b := d.buf(bankIdx, row)
	ready := max(now, b.actTime+d.t.TRC, b.readyAt)
	if b.state == BankActive {
		// Needs a precharge first: the earliest PRE, then tRP.
		pre := b.preAllowedAt
		if b.apPending {
			pre = b.apStartAt
		}
		ready = max(ready, max(pre, now)+d.t.TRP)
	}
	ready = max(ready, d.lastActAny+d.rrdFor(bankIdx))
	if d.t.TFAW > 0 && d.fault != FaultSkipTFAW {
		ready = max(ready, d.actTimes[0]+d.t.TFAW)
	}
	return ready
}

// RowColumnReadyAt returns a conservative lower bound on the earliest
// cycle a READ or WRITE to the row could be legal, assuming its buffer
// holds (or will hold) the row. Same contract as RowActivateReadyAt:
// never later than the true earliest legal cycle.
func (d *Device) RowColumnReadyAt(bankIdx, row int, kind CmdKind, now int64) int64 {
	d.advance(now)
	ready := max(now, d.lastCAS+d.ccdFor(bankIdx))
	if d.fault != FaultSkipTRCD {
		ready = max(ready, d.buf(bankIdx, row).casAllowedAt)
	}
	if kind == CmdRead {
		return max(ready, d.writeDataEnd+d.t.TWTR, d.busBusyUntil-d.t.CL)
	}
	return max(ready, d.busBusyUntil-d.t.CWL, d.readDataEnd+d.t.TRTW-d.t.CWL)
}

// RowPrechargeReadyAt returns a conservative lower bound on the earliest
// cycle an explicit PRECHARGE of the row's buffer could be legal
// (tRAS/tWR/tRTP floors). Same contract as RowActivateReadyAt.
func (d *Device) RowPrechargeReadyAt(bankIdx, row int, now int64) int64 {
	d.advance(now)
	return max(now, d.buf(bankIdx, row).preAllowedAt)
}

// refusal names the legality rule that refuses a command. checkIssue
// returns one so the hot CanIssue path allocates nothing; Issue's cold
// path turns it into the descriptive error.
type refusal uint8

const (
	refNone refusal = iota
	refBusBusy
	refBankRange
	refActState
	refActNotReady
	refActTRC
	refActTRRD
	refActTFAW
	refBurstLength
	refCASRow
	refCASState
	refCASAutoPre
	refCASTRCD
	refCASTCCD
	refCASSlowFault
	refReadTWTR
	refReadBus
	refWriteBus
	refWriteTRTW
	refPreState
	refPreAutoPre
	refPreEarly
	refRefreshBusy
	refRefreshAutoPre
	refUnknownKind
)

// blLegal reports whether the device mode accepts the burst length.
func (d *Device) blLegal(bl int) bool {
	if d.t.OTF {
		return bl == 4 || bl == 8
	}
	return bl == d.t.DeviceBL
}

// checkIssue reports which rule refuses cmd at now (refNone if it is
// legal) and the bank the verdict is about — cmd.Bank, or the first
// non-idle bank for a refused REFRESH. It does not mutate timing state
// beyond advancing auto-precharges.
func (d *Device) checkIssue(cmd Command, now int64) (refusal, int) {
	d.advance(now)
	if now == d.lastCmdCycle {
		return refBusBusy, cmd.Bank
	}
	if cmd.Bank < 0 || (cmd.Kind != CmdRefresh && cmd.Bank >= d.t.Banks) {
		return refBankRange, cmd.Bank
	}
	why := refNone
	switch cmd.Kind {
	case CmdActivate:
		// The ACT needs only the row's own buffer idle; sibling subarrays
		// of the bank may stay open (MASA-lite activation overlap).
		b := d.buf(cmd.Bank, cmd.Row)
		switch {
		case b.state != BankIdle:
			why = refActState
		case now < b.readyAt:
			why = refActNotReady
		case now < b.actTime+d.t.TRC:
			why = refActTRC
		case now < d.lastActAny+d.rrdFor(cmd.Bank):
			why = refActTRRD
		case d.t.TFAW > 0 && now < d.actTimes[0]+d.t.TFAW && d.fault != FaultSkipTFAW:
			why = refActTFAW
		}
	case CmdRead, CmdWrite:
		b := d.buf(cmd.Bank, cmd.Row)
		switch {
		case !d.blLegal(cmd.BL):
			why = refBurstLength
		case b.state == BankActive && b.openRow != cmd.Row:
			why = refCASRow
		case b.state != BankActive:
			why = refCASState
		case b.apPending:
			why = refCASAutoPre
		case now < b.casAllowedAt && d.fault != FaultSkipTRCD:
			why = refCASTRCD
		case now < d.lastCAS+d.ccdFor(cmd.Bank):
			why = refCASTCCD
		case d.fault == FaultSlowCAS && now < d.lastCAS+SlowCASGap:
			why = refCASSlowFault
		case cmd.Kind == CmdRead && now < d.writeDataEnd+d.t.TWTR:
			why = refReadTWTR
		case cmd.Kind == CmdRead && now+d.t.CL < d.busBusyUntil:
			why = refReadBus
		case cmd.Kind == CmdWrite && now+d.t.CWL < d.busBusyUntil:
			why = refWriteBus
		case cmd.Kind == CmdWrite && now+d.t.CWL < d.readDataEnd+d.t.TRTW:
			why = refWriteTRTW
		}
	case CmdPrecharge:
		// The Row field selects the buffer to close.
		b := d.buf(cmd.Bank, cmd.Row)
		switch {
		case b.state != BankActive:
			why = refPreState
		case b.apPending:
			why = refPreAutoPre
		case now < b.preAllowedAt:
			why = refPreEarly
		}
	case CmdRefresh:
		for i := range d.bufs {
			b := &d.bufs[i]
			if b.state != BankIdle || now < b.readyAt {
				return refRefreshBusy, i / d.bufsPerBank
			}
			if b.apPending {
				return refRefreshAutoPre, i / d.bufsPerBank
			}
		}
	default:
		why = refUnknownKind
	}
	return why, cmd.Bank
}

// refusalErr formats the error for a refusal checkIssue returned.
func (d *Device) refusalErr(why refusal, bankIdx int, cmd Command) error {
	msg := ""
	switch why {
	case refBusBusy:
		msg = fmt.Sprintf("command bus busy at cycle %d", d.now)
	case refBankRange:
		msg = fmt.Sprintf("bank %d out of range", bankIdx)
	case refActState, refCASState, refPreState:
		msg = fmt.Sprintf("%s to %s bank %d", cmd.Kind, d.buf(bankIdx, cmd.Row).state, bankIdx)
	case refActNotReady:
		msg = fmt.Sprintf("ACT before precharge/refresh completion of bank %d (ready at %d)", bankIdx, d.buf(bankIdx, cmd.Row).readyAt)
	case refActTRC:
		msg = fmt.Sprintf("ACT violates tRC on bank %d", bankIdx)
	case refActTRRD:
		msg = "ACT violates tRRD"
	case refActTFAW:
		msg = "ACT violates tFAW (four-activate window)"
	case refBurstLength:
		if d.t.OTF {
			msg = fmt.Sprintf("OTF device accepts BL 4 or 8, got %d", cmd.BL)
		} else {
			msg = fmt.Sprintf("device is in BL%d mode, got BL%d", d.t.DeviceBL, cmd.BL)
		}
	case refCASRow:
		msg = fmt.Sprintf("%s to bank %d row %d but its row buffer holds row %d", cmd.Kind, bankIdx, cmd.Row, d.buf(bankIdx, cmd.Row).openRow)
	case refCASAutoPre, refPreAutoPre:
		msg = fmt.Sprintf("%s to bank %d with pending auto-precharge", cmd.Kind, bankIdx)
	case refCASTRCD:
		msg = fmt.Sprintf("%s violates tRCD on bank %d", cmd.Kind, bankIdx)
	case refCASTCCD:
		msg = fmt.Sprintf("%s violates tCCD", cmd.Kind)
	case refCASSlowFault:
		msg = fmt.Sprintf("%s delayed by injected slow-CAS fault", cmd.Kind)
	case refReadTWTR:
		msg = "RD violates tWTR"
	case refReadBus, refWriteBus:
		msg = fmt.Sprintf("%s data would collide on the bus", cmd.Kind)
	case refWriteTRTW:
		msg = "WR violates read-to-write turnaround"
	case refPreEarly:
		msg = fmt.Sprintf("PRE violates tRAS/tWR/tRTP on bank %d (allowed at %d)", bankIdx, d.buf(bankIdx, cmd.Row).preAllowedAt)
	case refRefreshBusy:
		msg = fmt.Sprintf("REF with bank %d not idle", bankIdx)
	case refRefreshAutoPre:
		msg = fmt.Sprintf("REF with pending auto-precharge on bank %d", bankIdx)
	default:
		msg = fmt.Sprintf("unknown command kind %d", cmd.Kind)
	}
	return fmt.Errorf("dram: %s", msg)
}

// CanIssue reports whether cmd is legal at cycle now.
func (d *Device) CanIssue(cmd Command, now int64) bool {
	why, _ := d.checkIssue(cmd, now)
	return why == refNone
}

// Issue presents cmd on the command bus at cycle now. For column commands
// the returned DataWindow describes the data-bus occupancy; read data is
// available to the controller at window.End. Issue returns an error (and
// changes no state) if the command violates any timing constraint — the
// device doubles as a protocol checker for the whole stack's tests.
func (d *Device) Issue(cmd Command, now int64) (DataWindow, error) {
	if why, bankIdx := d.checkIssue(cmd, now); why != refNone {
		return DataWindow{}, d.refusalErr(why, bankIdx, cmd)
	}
	d.lastCmdCycle = now
	var w DataWindow
	switch cmd.Kind {
	case CmdActivate:
		b := d.buf(cmd.Bank, cmd.Row)
		b.state = BankActive
		b.openRow = cmd.Row
		b.actTime = now
		b.casAllowedAt = now + d.t.TRCD
		b.preAllowedAt = now + d.t.TRAS
		b.casSinceAct = false
		d.lastActAny = now
		d.lastActBank = cmd.Bank
		copy(d.actTimes[:], d.actTimes[1:])
		d.actTimes[3] = now
		d.perBank[cmd.Bank].Activates++
	case CmdRead, CmdWrite:
		b := d.buf(cmd.Bank, cmd.Row)
		burst := BurstCycles(cmd.BL)
		var pre int64 // earliest precharge this access allows
		if cmd.Kind == CmdRead {
			w = DataWindow{Start: now + d.t.CL, End: now + d.t.CL + burst}
			d.readDataEnd = w.End
			d.perBank[cmd.Bank].Reads++
			pre = now + d.t.TRTP + burst
		} else {
			w = DataWindow{Start: now + d.t.CWL, End: now + d.t.CWL + burst}
			d.writeDataEnd = w.End
			d.perBank[cmd.Bank].Writes++
			pre = w.End + d.t.TWR
		}
		d.lastCAS = now
		d.lastCASBank = cmd.Bank
		d.busBusyUntil = w.End
		if b.casSinceAct {
			d.perBank[cmd.Bank].RowHits++
		}
		b.casSinceAct = true
		d.stats.DataCycles += w.Cycles()
		d.stats.BurstsBL += int64(cmd.BL)
		b.preAllowedAt = max(b.preAllowedAt, pre)
		if cmd.AutoPrecharge {
			b.apPending = true
			b.apStartAt = b.preAllowedAt
		}
	case CmdPrecharge:
		b := d.buf(cmd.Bank, cmd.Row)
		b.state = BankPrecharging
		b.readyAt = now + d.t.TRP
		d.perBank[cmd.Bank].Precharges++
	case CmdRefresh:
		for i := range d.bufs {
			d.bufs[i].readyAt = now + d.t.TRFC
		}
		d.stats.Refreshes++
	}
	if d.Observer != nil {
		d.Observer(now, cmd, w)
	}
	return w, nil
}
