// Package dram provides a cycle-level model of DDR I/II/III SDRAM devices:
// JEDEC-style timing parameter sets, per-bank state machines, command
// legality checking, auto-precharge, and data-bus occupancy tracking.
//
// The model is the memory substrate of the application-aware NoC
// reproduction. It is command-accurate: a controller (or router test
// bench) issues Activate/Read/Write/Precharge/Refresh commands and the
// device enforces every inter-command constraint (tRCD, tRP, tRAS, tCCD,
// tRRD, tWR, tWTR, tRTP, CL/CWL, bus turnaround) at memory-clock-cycle
// granularity, exactly the quantities the paper's evaluation metrics
// (data-bus utilization, request latency in cycles) are built from.
package dram

import "fmt"

// Generation identifies a DDR SDRAM generation. The paper evaluates all
// three: DDR I at 133-200 MHz, DDR II at 266-400 MHz, DDR III at
// 533-800 MHz.
type Generation int

const (
	DDR1 Generation = 1 + iota
	DDR2
	DDR3
	// DDR4 introduces bank groups: column and activate spacing depend on
	// whether consecutive commands land in the same group (tCCD_L/tRRD_L)
	// or different groups (tCCD_S/tRRD_S).
	DDR4
	// LPDDR3 is the low-power mobile part: DDR3-class protocol with
	// slower analog timings (long tRRD/tFAW) at high data rates.
	LPDDR3
)

// Generations lists every supported generation in protocol order.
func Generations() []Generation {
	return []Generation{DDR1, DDR2, DDR3, DDR4, LPDDR3}
}

// String returns the conventional name of the generation.
func (g Generation) String() string {
	switch g {
	case DDR1:
		return "DDR1"
	case DDR2:
		return "DDR2"
	case DDR3:
		return "DDR3"
	case DDR4:
		return "DDR4"
	case LPDDR3:
		return "LPDDR3"
	default:
		return fmt.Sprintf("Generation(%d)", int(g))
	}
}

// Timing is a complete device timing parameter set. All values are in
// memory clock cycles at ClockMHz. DDR transfers two data beats per clock,
// so a burst of length BL occupies BL/2 data-bus cycles.
type Timing struct {
	Generation Generation
	ClockMHz   int
	Banks      int // independent banks (4 for DDR1/2, 8 for DDR3)

	CL  int64 // CAS (read) latency: READ command to first data beat
	CWL int64 // CAS write latency: WRITE command to first data beat

	TRCD int64 // ACTIVATE to READ/WRITE, same bank
	TRP  int64 // PRECHARGE to ACTIVATE, same bank
	TRAS int64 // ACTIVATE to PRECHARGE, same bank (minimum row-open time)
	TRC  int64 // ACTIVATE to ACTIVATE, same bank
	TRRD int64 // ACTIVATE to ACTIVATE, different banks

	TWR  int64 // end of write data to PRECHARGE, same bank (write recovery)
	TWTR int64 // end of write data to READ command, any bank (internal turnaround)
	TRTP int64 // READ command to PRECHARGE, same bank
	TCCD int64 // CAS to CAS, any bank (column command spacing)
	TRTW int64 // extra data-bus gap imposed between read data end and write data start

	TRFC  int64 // REFRESH to ACTIVATE (refresh cycle time)
	TREFI int64 // average refresh interval
	TFAW  int64 // four-activate window: at most 4 ACTs per rolling window (0 disables)

	// BankGroups partitions the banks into groups (DDR4). When > 1,
	// column and activate spacing use the long/short pairs below instead
	// of the flat TCCD/TRRD; group membership is bank index modulo
	// BankGroups, so a controller walking sequential banks alternates
	// groups and earns the short spacing. 0 or 1 means no group structure.
	BankGroups int
	TCCDL      int64 // CAS to CAS, same bank group (>= TCCD)
	TCCDS      int64 // CAS to CAS, different bank groups
	TRRDL      int64 // ACT to ACT, same bank group (>= TRRD)
	TRRDS      int64 // ACT to ACT, different bank groups

	// Subarrays enables SALP-style per-subarray row buffers (MASA-lite):
	// each bank is split into Subarrays independent row buffers, a row
	// maps to subarray row%Subarrays, and activations to distinct
	// subarrays of one bank may overlap. 0 or 1 keeps the classic
	// one-row-buffer-per-bank device.
	Subarrays int

	// DeviceBL is the burst length the device mode register is set to
	// (2, 4 or 8). OTF reports whether the device supports on-the-fly
	// burst chop (DDR3/DDR4 BL8 with selectable BC4 per command).
	DeviceBL int
	OTF      bool
}

// WithSubarrays returns a copy of t with SALP-style subarray row buffers
// enabled (n <= 1 disables them).
func (t Timing) WithSubarrays(n int) Timing {
	t.Subarrays = n
	return t
}

// GroupOf returns the bank-group index of a bank (0 when the generation
// has no group structure).
func (t *Timing) GroupOf(bank int) int {
	if t.BankGroups <= 1 {
		return 0
	}
	return bank % t.BankGroups
}

// RowBuffers returns the row buffers each bank holds: Subarrays, with the
// 0 that means "classic device" normalised to 1. Every layer that indexes
// per-buffer state (device, controller, monitor, structure map) sizes it
// from here.
func (t *Timing) RowBuffers() int { return max(t.Subarrays, 1) }

// SubarrayOf returns the subarray (row buffer) index a row maps to — 0
// on the classic one-buffer bank.
func (t *Timing) SubarrayOf(row int) int { return row % t.RowBuffers() }

// Validate reports whether the timing set is internally consistent.
func (t *Timing) Validate() error {
	switch {
	case t.Generation < DDR1 || t.Generation > LPDDR3:
		return fmt.Errorf("dram: invalid generation %d", t.Generation)
	case t.ClockMHz <= 0:
		return fmt.Errorf("dram: invalid clock %d MHz", t.ClockMHz)
	case t.Banks != 4 && t.Banks != 8 && t.Banks != 16:
		return fmt.Errorf("dram: invalid bank count %d", t.Banks)
	case t.CL < 1 || t.CWL < 1:
		return fmt.Errorf("dram: CL/CWL must be >= 1 (CL=%d CWL=%d)", t.CL, t.CWL)
	case t.TRCD < 1 || t.TRP < 1 || t.TRAS < 1:
		return fmt.Errorf("dram: tRCD/tRP/tRAS must be >= 1")
	case t.TRAS < t.TRCD:
		return fmt.Errorf("dram: tRAS (%d) < tRCD (%d)", t.TRAS, t.TRCD)
	case t.TRC < t.TRAS+t.TRP:
		return fmt.Errorf("dram: tRC (%d) < tRAS+tRP (%d)", t.TRC, t.TRAS+t.TRP)
	case t.TCCD < 1:
		return fmt.Errorf("dram: tCCD must be >= 1")
	case t.DeviceBL != 2 && t.DeviceBL != 4 && t.DeviceBL != 8:
		return fmt.Errorf("dram: invalid device BL %d", t.DeviceBL)
	case t.OTF && t.Generation != DDR3 && t.Generation != DDR4:
		return fmt.Errorf("dram: OTF burst chop is a DDR3/DDR4 feature")
	case t.Subarrays < 0:
		return fmt.Errorf("dram: invalid subarray count %d", t.Subarrays)
	}
	if t.BankGroups > 1 {
		switch {
		case t.Banks%t.BankGroups != 0:
			return fmt.Errorf("dram: %d banks not divisible into %d groups", t.Banks, t.BankGroups)
		case t.TCCDL < 1 || t.TCCDS < 1 || t.TRRDL < 1 || t.TRRDS < 1:
			return fmt.Errorf("dram: bank groups need tCCD_L/S and tRRD_L/S >= 1")
		case t.TCCDL < t.TCCDS:
			return fmt.Errorf("dram: tCCD_L (%d) < tCCD_S (%d)", t.TCCDL, t.TCCDS)
		case t.TRRDL < t.TRRDS:
			return fmt.Errorf("dram: tRRD_L (%d) < tRRD_S (%d)", t.TRRDL, t.TRRDS)
		}
	}
	return nil
}

// BurstCycles returns the number of data-bus clock cycles a burst of bl
// beats occupies (two beats per cycle, minimum one cycle).
func BurstCycles(bl int) int64 {
	if bl <= 1 {
		return 1
	}
	return int64((bl + 1) / 2)
}

// speedKey identifies a predefined speed grade.
type speedKey struct {
	gen Generation
	mhz int
}

// grades holds the predefined timing sets for the nine clock points the
// paper evaluates (three per generation). Values are derived from typical
// JEDEC datasheet parameters (tRCD/tRP ~15 ns for DDR1/2, ~13.5 ns for
// DDR3; tRAS 40-45 ns; tWR 15 ns; tWTR/tRTP 7.5 ns) converted to cycles
// at each clock. DDR3 at 800 MHz deliberately satisfies the paper's
// observation that deactivating a bank after a write takes
// tWR+tRP = 23 cycles.
var grades = map[speedKey]Timing{
	{DDR1, 133}: {Generation: DDR1, ClockMHz: 133, Banks: 4, CL: 2, CWL: 1, TRCD: 2, TRP: 2, TRAS: 6, TRC: 9, TRRD: 2, TWR: 2, TWTR: 1, TRTP: 1, TCCD: 1, TRTW: 1, TRFC: 10, TREFI: 1036, DeviceBL: 8},
	{DDR1, 166}: {Generation: DDR1, ClockMHz: 166, Banks: 4, CL: 3, CWL: 1, TRCD: 3, TRP: 3, TRAS: 7, TRC: 10, TRRD: 2, TWR: 3, TWTR: 2, TRTP: 2, TCCD: 1, TRTW: 1, TRFC: 12, TREFI: 1294, DeviceBL: 8},
	{DDR1, 200}: {Generation: DDR1, ClockMHz: 200, Banks: 4, CL: 3, CWL: 1, TRCD: 3, TRP: 3, TRAS: 8, TRC: 11, TRRD: 2, TWR: 3, TWTR: 2, TRTP: 2, TCCD: 1, TRTW: 1, TRFC: 14, TREFI: 1560, DeviceBL: 8},

	{DDR2, 266}: {Generation: DDR2, ClockMHz: 266, Banks: 4, CL: 4, CWL: 3, TRCD: 4, TRP: 4, TRAS: 12, TRC: 16, TRRD: 3, TWR: 4, TWTR: 2, TRTP: 2, TCCD: 2, TRTW: 2, TRFC: 28, TREFI: 2074, TFAW: 10, DeviceBL: 8},
	{DDR2, 333}: {Generation: DDR2, ClockMHz: 333, Banks: 4, CL: 5, CWL: 4, TRCD: 5, TRP: 5, TRAS: 15, TRC: 20, TRRD: 3, TWR: 5, TWTR: 3, TRTP: 3, TCCD: 2, TRTW: 2, TRFC: 35, TREFI: 2597, TFAW: 13, DeviceBL: 8},
	{DDR2, 400}: {Generation: DDR2, ClockMHz: 400, Banks: 4, CL: 6, CWL: 5, TRCD: 6, TRP: 6, TRAS: 18, TRC: 24, TRRD: 4, TWR: 6, TWTR: 3, TRTP: 3, TCCD: 2, TRTW: 2, TRFC: 42, TREFI: 3120, TFAW: 15, DeviceBL: 8},

	{DDR3, 533}: {Generation: DDR3, ClockMHz: 533, Banks: 8, CL: 7, CWL: 6, TRCD: 7, TRP: 7, TRAS: 20, TRC: 27, TRRD: 4, TWR: 8, TWTR: 4, TRTP: 4, TCCD: 4, TRTW: 2, TRFC: 59, TREFI: 4157, TFAW: 16, DeviceBL: 8, OTF: true},
	{DDR3, 667}: {Generation: DDR3, ClockMHz: 667, Banks: 8, CL: 9, CWL: 7, TRCD: 9, TRP: 9, TRAS: 24, TRC: 33, TRRD: 5, TWR: 10, TWTR: 5, TRTP: 5, TCCD: 4, TRTW: 2, TRFC: 74, TREFI: 5202, TFAW: 20, DeviceBL: 8, OTF: true},
	{DDR3, 800}: {Generation: DDR3, ClockMHz: 800, Banks: 8, CL: 11, CWL: 8, TRCD: 11, TRP: 11, TRAS: 28, TRC: 39, TRRD: 6, TWR: 12, TWTR: 6, TRTP: 6, TCCD: 4, TRTW: 2, TRFC: 88, TREFI: 6240, TFAW: 24, DeviceBL: 8, OTF: true},

	// DDR4 (data rates 2133/2400/2666): 16 banks in 4 groups. The flat
	// TCCD/TRRD fields mirror the short (cross-group) spacings so code
	// that ignores group structure stays a valid lower bound; the device
	// applies TCCDL/TRRDL when consecutive commands share a group.
	{DDR4, 1066}: {Generation: DDR4, ClockMHz: 1066, Banks: 16, BankGroups: 4, CL: 15, CWL: 11, TRCD: 15, TRP: 15, TRAS: 36, TRC: 51, TRRD: 4, TRRDS: 4, TRRDL: 6, TWR: 16, TWTR: 8, TRTP: 8, TCCD: 4, TCCDS: 4, TCCDL: 6, TRTW: 2, TRFC: 374, TREFI: 8314, TFAW: 28, DeviceBL: 8, OTF: true},
	{DDR4, 1200}: {Generation: DDR4, ClockMHz: 1200, Banks: 16, BankGroups: 4, CL: 16, CWL: 12, TRCD: 16, TRP: 16, TRAS: 39, TRC: 55, TRRD: 4, TRRDS: 4, TRRDL: 6, TWR: 18, TWTR: 9, TRTP: 9, TCCD: 4, TCCDS: 4, TCCDL: 6, TRTW: 2, TRFC: 420, TREFI: 9360, TFAW: 32, DeviceBL: 8, OTF: true},
	{DDR4, 1333}: {Generation: DDR4, ClockMHz: 1333, Banks: 16, BankGroups: 4, CL: 18, CWL: 14, TRCD: 18, TRP: 18, TRAS: 43, TRC: 61, TRRD: 5, TRRDS: 5, TRRDL: 7, TWR: 20, TWTR: 10, TRTP: 10, TCCD: 4, TCCDS: 4, TCCDL: 7, TRTW: 2, TRFC: 467, TREFI: 10397, TFAW: 36, DeviceBL: 8, OTF: true},

	// LPDDR3 (data rates 1600/1866/2133): DDR3-class protocol, no bank
	// groups, slow analog core (long tRRD/tFAW relative to the clock).
	{LPDDR3, 800}:  {Generation: LPDDR3, ClockMHz: 800, Banks: 8, CL: 12, CWL: 6, TRCD: 15, TRP: 15, TRAS: 34, TRC: 49, TRRD: 8, TWR: 12, TWTR: 6, TRTP: 6, TCCD: 4, TRTW: 2, TRFC: 168, TREFI: 3120, TFAW: 40, DeviceBL: 8},
	{LPDDR3, 933}:  {Generation: LPDDR3, ClockMHz: 933, Banks: 8, CL: 14, CWL: 8, TRCD: 17, TRP: 17, TRAS: 40, TRC: 57, TRRD: 10, TWR: 14, TWTR: 7, TRTP: 7, TCCD: 4, TRTW: 2, TRFC: 196, TREFI: 3639, TFAW: 47, DeviceBL: 8},
	{LPDDR3, 1066}: {Generation: LPDDR3, ClockMHz: 1066, Banks: 8, CL: 16, CWL: 9, TRCD: 19, TRP: 19, TRAS: 46, TRC: 65, TRRD: 11, TWR: 16, TWTR: 8, TRTP: 8, TCCD: 4, TRTW: 2, TRFC: 224, TREFI: 4157, TFAW: 54, DeviceBL: 8},
}

// DefaultClock returns the fastest predefined clock point of a
// generation — the fallback for application models that predate the
// generation and carry no Table I clock entry for it.
func DefaultClock(gen Generation) int {
	s := Speeds(gen)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// Speed returns the predefined timing set for a generation and clock.
// The supported points are the nine the paper evaluates — DDR1
// 133/166/200, DDR2 266/333/400, DDR3 533/667/800 MHz — plus the modern
// extensions DDR4 1066/1200/1333 and LPDDR3 800/933/1066 MHz.
func Speed(gen Generation, clockMHz int) (Timing, error) {
	t, ok := grades[speedKey{gen, clockMHz}]
	if !ok {
		return Timing{}, fmt.Errorf("dram: no predefined timing for %s at %d MHz", gen, clockMHz)
	}
	return t, nil
}

// MustSpeed is Speed but panics on unknown grades; intended for tables of
// known-good configurations and tests.
func MustSpeed(gen Generation, clockMHz int) Timing {
	t, err := Speed(gen, clockMHz)
	if err != nil {
		panic(err)
	}
	return t
}

// Speeds returns the list of predefined clock points for a generation in
// ascending order.
func Speeds(gen Generation) []int {
	var out []int
	for k := range grades {
		if k.gen == gen {
			out = append(out, k.mhz)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// WithDeviceBL returns a copy of t with the mode-register burst length
// changed. SAGM configurations run DDR1/2 devices in BL4 mode and DDR3
// devices in BL8 mode with OTF burst chop.
func (t Timing) WithDeviceBL(bl int) Timing {
	t.DeviceBL = bl
	return t
}
