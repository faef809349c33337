package check

import (
	"aanoc/internal/dram"
)

// shadowBank is the monitor's own copy of one bank's timing state. It is
// maintained exclusively from the observed command stream — never read
// from the device — so the monitor cannot inherit a device-state bug.
type shadowBank struct {
	state dram.BankState

	openRow      int   // row the buffer holds while active (CAS row match)
	actAt        int64 // cycle of the last ACTIVATE
	readyAt      int64 // precharge/refresh completion (ACT legal after)
	casAllowedAt int64 // tRCD horizon
	preAllowedAt int64 // tRAS/tWR/tRTP horizon

	apPending bool
	apStartAt int64
}

// DRAMMonitor re-validates every command the device accepts against the
// JEDEC constraints of the timing set, using shadow per-bank state. It
// is installed as the device's Observer (which fires only on accepted
// commands), so any command the fast path lets through illegally —
// whether CanIssue mis-approved it or a controller bypassed the check —
// is flagged with its cycle and the violated parameter.
type DRAMMonitor struct {
	c *Checker
	t dram.Timing

	now         int64
	lastCmdAt   int64
	lastCASAt   int64
	lastCASBank int // bank of the last CAS (-1: none); group-aware tCCD
	lastActAt   int64
	lastActBank int      // bank of the last ACT (-1: none); group-aware tRRD
	actTimes    [4]int64 // rolling window of the last four ACTs (tFAW)

	readDataEnd  int64
	writeDataEnd int64
	busBusyUntil int64

	// subarrays is the normalised row-buffer count per bank (>= 1); the
	// shadow buffer for (bank, row) lives at banks[bank*subarrays +
	// row%subarrays], which degenerates to banks[bank] without subarrays.
	subarrays int
	banks     []shadowBank
}

const farPast = -(1 << 30)

// NewDRAMMonitor builds a monitor for one device's command stream.
func NewDRAMMonitor(c *Checker, t dram.Timing) *DRAMMonitor {
	subs := t.RowBuffers()
	m := &DRAMMonitor{
		c: c, t: t,
		lastCmdAt:   -1,
		lastCASAt:   farPast,
		lastCASBank: -1,
		lastActAt:   farPast,
		lastActBank: -1,
		// No read or write data before the stream: a first RD or WR
		// owes no turnaround.
		readDataEnd:  farPast,
		writeDataEnd: farPast,
		subarrays:    subs,
		banks:        make([]shadowBank, t.Banks*subs),
	}
	for i := range m.banks {
		m.banks[i].actAt = farPast
	}
	for i := range m.actTimes {
		m.actTimes[i] = farPast
	}
	return m
}

// shadowOf returns the shadow row buffer serving a (bank, row) pair.
func (m *DRAMMonitor) shadowOf(bank, row int) *shadowBank {
	return &m.banks[bank*m.subarrays+row%m.subarrays]
}

// rrdFor derives the ACT-to-ACT spacing the monitor expects before an
// ACT to the bank: flat tRRD, or the JEDEC long/short pair when the
// generation has bank groups (same group iff equal bank mod groups) —
// re-derived from the timing package, never read from the device.
func (m *DRAMMonitor) rrdFor(bank int) int64 {
	if m.t.BankGroups > 1 && m.lastActBank >= 0 {
		if bank%m.t.BankGroups == m.lastActBank%m.t.BankGroups {
			return m.t.TRRDL
		}
		return m.t.TRRDS
	}
	return m.t.TRRD
}

// ccdFor derives the CAS-to-CAS spacing (tCCD, or tCCD_L/tCCD_S with
// bank groups) the monitor expects before a column command to the bank.
func (m *DRAMMonitor) ccdFor(bank int) int64 {
	if m.t.BankGroups > 1 && m.lastCASBank >= 0 {
		if bank%m.t.BankGroups == m.lastCASBank%m.t.BankGroups {
			return m.t.TCCDL
		}
		return m.t.TCCDS
	}
	return m.t.TCCD
}

// advance retires shadow auto-precharges and settles completed
// precharges up to now, mirroring the device's time semantics.
func (m *DRAMMonitor) advance(now int64) {
	if now < m.now {
		m.c.Reportf(now, "dram", "time-backwards",
			"command at cycle %d after cycle %d", now, m.now)
	}
	m.now = now
	for i := range m.banks {
		b := &m.banks[i]
		if b.apPending && now >= b.apStartAt {
			b.apPending = false
			b.state = dram.BankPrecharging
			b.readyAt = b.apStartAt + m.t.TRP
		}
		if b.state == dram.BankPrecharging && now >= b.readyAt {
			b.state = dram.BankIdle
		}
	}
}

// Observe validates one accepted command and its reported data window,
// then folds it into the shadow state. Install as dram.Device.Observer.
func (m *DRAMMonitor) Observe(now int64, cmd dram.Command, w dram.DataWindow) {
	m.advance(now)
	report := func(kind, format string, args ...any) {
		m.c.Reportf(now, "dram", kind, format, args...)
	}
	if now == m.lastCmdAt {
		report("cmd-bus", "second command (%s) on the bus in one cycle", cmd)
	}
	m.lastCmdAt = now
	if cmd.Bank < 0 || (cmd.Kind != dram.CmdRefresh && cmd.Bank >= m.t.Banks) {
		report("bank-range", "bank %d outside [0,%d)", cmd.Bank, m.t.Banks)
		return
	}

	switch cmd.Kind {
	case dram.CmdActivate:
		m.checkActivate(cmd, now, report)
	case dram.CmdRead, dram.CmdWrite:
		m.checkColumn(cmd, now, w, report)
	case dram.CmdPrecharge:
		m.checkPrecharge(cmd, now, report)
	case dram.CmdRefresh:
		m.checkRefresh(cmd, now, report)
	default:
		report("unknown-cmd", "command kind %d", int(cmd.Kind))
	}
	if !cmd.IsCAS() && (w != dram.DataWindow{}) {
		report("data-window", "%s reported a data window [%d,%d)", cmd.Kind, w.Start, w.End)
	}
}

func (m *DRAMMonitor) checkActivate(cmd dram.Command, now int64, report func(string, string, ...any)) {
	b := m.shadowOf(cmd.Bank, cmd.Row)
	if b.state != dram.BankIdle {
		report("ACT-state", "ACT to %s bank %d", b.state, cmd.Bank)
	}
	if now < b.readyAt {
		report("tRP", "ACT to bank %d before precharge/refresh completes at %d", cmd.Bank, b.readyAt)
	}
	if now < b.actAt+m.t.TRC {
		report("tRC", "ACT to bank %d only %d cycles after its last ACT (tRC=%d)", cmd.Bank, now-b.actAt, m.t.TRC)
	}
	if trrd := m.rrdFor(cmd.Bank); now < m.lastActAt+trrd {
		report("tRRD", "ACT %d cycles after the previous ACT (tRRD=%d)", now-m.lastActAt, trrd)
	}
	if m.t.TFAW > 0 && now < m.actTimes[0]+m.t.TFAW {
		report("tFAW", "fifth ACT %d cycles into a four-activate window of %d", now-m.actTimes[0], m.t.TFAW)
	}
	b.state = dram.BankActive
	b.openRow = cmd.Row
	b.actAt = now
	b.casAllowedAt = now + m.t.TRCD
	b.preAllowedAt = now + m.t.TRAS
	m.lastActAt = now
	m.lastActBank = cmd.Bank
	copy(m.actTimes[:], m.actTimes[1:])
	m.actTimes[3] = now
}

func (m *DRAMMonitor) checkColumn(cmd dram.Command, now int64, w dram.DataWindow, report func(string, string, ...any)) {
	if m.t.OTF {
		if cmd.BL != 4 && cmd.BL != 8 {
			report("BL", "%s with BL%d on an OTF device (want 4 or 8)", cmd.Kind, cmd.BL)
		}
	} else if cmd.BL != m.t.DeviceBL {
		report("BL", "%s with BL%d on a BL%d-mode device", cmd.Kind, cmd.BL, m.t.DeviceBL)
	}
	b := m.shadowOf(cmd.Bank, cmd.Row)
	if b.state != dram.BankActive {
		report("CAS-state", "%s to %s bank %d", cmd.Kind, b.state, cmd.Bank)
	} else if b.openRow != cmd.Row {
		report("subarray-row", "%s to bank %d row %d but its row buffer holds row %d",
			cmd.Kind, cmd.Bank, cmd.Row, b.openRow)
	}
	if b.apPending {
		report("AP-pending", "%s to bank %d with a pending auto-precharge", cmd.Kind, cmd.Bank)
	}
	if now < b.casAllowedAt {
		report("tRCD", "%s to bank %d at %d, tRCD horizon %d", cmd.Kind, cmd.Bank, now, b.casAllowedAt)
	}
	if tccd := m.ccdFor(cmd.Bank); now < m.lastCASAt+tccd {
		report("tCCD", "%s %d cycles after the previous CAS (tCCD=%d)", cmd.Kind, now-m.lastCASAt, tccd)
	}
	burst := dram.BurstCycles(cmd.BL)
	var start int64
	if cmd.Kind == dram.CmdRead {
		start = now + m.t.CL
		if now < m.writeDataEnd+m.t.TWTR {
			report("tWTR", "RD %d cycles after write data end (tWTR=%d)", now-m.writeDataEnd, m.t.TWTR)
		}
		if start < m.busBusyUntil {
			report("bus-collision", "RD data at %d collides with bus busy until %d", start, m.busBusyUntil)
		}
	} else {
		start = now + m.t.CWL
		if start < m.busBusyUntil {
			report("bus-collision", "WR data at %d collides with bus busy until %d", start, m.busBusyUntil)
		}
		if start < m.readDataEnd+m.t.TRTW {
			report("tRTW", "WR data at %d only %d cycles after read data end (tRTW=%d)",
				start, start-m.readDataEnd, m.t.TRTW)
		}
	}
	end := start + burst
	if w.Start != start || w.End != end {
		report("data-window", "%s reported window [%d,%d), shadow expects [%d,%d)",
			cmd.Kind, w.Start, w.End, start, end)
	}
	// Fold into shadow state, mirroring the device's published semantics.
	m.lastCASAt = now
	m.lastCASBank = cmd.Bank
	m.busBusyUntil = end
	if cmd.Kind == dram.CmdRead {
		m.readDataEnd = end
		if pre := now + m.t.TRTP + burst; pre > b.preAllowedAt {
			b.preAllowedAt = pre
		}
	} else {
		m.writeDataEnd = end
		if pre := end + m.t.TWR; pre > b.preAllowedAt {
			b.preAllowedAt = pre
		}
	}
	if cmd.AutoPrecharge {
		b.apPending = true
		b.apStartAt = b.preAllowedAt
	}
}

func (m *DRAMMonitor) checkPrecharge(cmd dram.Command, now int64, report func(string, string, ...any)) {
	b := m.shadowOf(cmd.Bank, cmd.Row)
	if b.state != dram.BankActive {
		report("PRE-state", "PRE to %s bank %d", b.state, cmd.Bank)
	}
	if b.apPending {
		report("AP-pending", "PRE to bank %d with a pending auto-precharge", cmd.Bank)
	}
	if now < b.preAllowedAt {
		report("tRAS/tWR/tRTP", "PRE to bank %d at %d, allowed at %d", cmd.Bank, now, b.preAllowedAt)
	}
	b.state = dram.BankPrecharging
	b.readyAt = now + m.t.TRP
}

func (m *DRAMMonitor) checkRefresh(_ dram.Command, now int64, report func(string, string, ...any)) {
	for i := range m.banks {
		b := &m.banks[i]
		if b.state != dram.BankIdle || now < b.readyAt {
			report("REF-not-idle", "REF with bank %d %s (ready at %d)", i/m.subarrays, b.state, b.readyAt)
		}
		if b.apPending {
			report("REF-not-idle", "REF with pending auto-precharge on bank %d", i/m.subarrays)
		}
	}
	for i := range m.banks {
		m.banks[i].readyAt = now + m.t.TRFC
	}
}
