package dram

import "fmt"

// CmdKind enumerates the SDRAM commands the model supports. NOP/DESELECT
// is implicit (any cycle with no command issued).
type CmdKind int

const (
	// CmdActivate opens a row in a bank (RAS).
	CmdActivate CmdKind = 1 + iota
	// CmdRead is a column read (CAS).
	CmdRead
	// CmdWrite is a column write (CAS with WE).
	CmdWrite
	// CmdPrecharge closes the open row of a bank (PRE).
	CmdPrecharge
	// CmdRefresh is an all-bank auto refresh; every bank must be idle.
	CmdRefresh
)

// String returns the datasheet mnemonic for the command kind.
func (k CmdKind) String() string {
	switch k {
	case CmdActivate:
		return "ACT"
	case CmdRead:
		return "RD"
	case CmdWrite:
		return "WR"
	case CmdPrecharge:
		return "PRE"
	case CmdRefresh:
		return "REF"
	default:
		return fmt.Sprintf("CmdKind(%d)", int(k))
	}
}

// Command is a single command presented on the SDRAM command bus. At most
// one command can be issued per clock cycle; the Device enforces this.
type Command struct {
	Kind CmdKind
	Bank int
	// Row addresses the row buffer on every per-bank command: ACT opens
	// the row; RD/WR must name the row their buffer holds (a mismatch is
	// refused); PRE closes the buffer the row maps to, whichever row it
	// holds. Ignored by CmdRefresh.
	Row int
	Col int // used by CmdRead/CmdWrite

	// BL is the burst length of a read or write. For non-OTF devices it
	// must equal the mode-register DeviceBL. For DDR3 OTF devices it may
	// be 4 (burst chop) or 8.
	BL int

	// AutoPrecharge requests a self-timed precharge at the end of the
	// burst (the paper's AP operation); valid on CmdRead/CmdWrite.
	AutoPrecharge bool
}

// String renders the command in a compact datasheet-like form.
func (c Command) String() string {
	switch c.Kind {
	case CmdActivate:
		return fmt.Sprintf("ACT b%d r%d", c.Bank, c.Row)
	case CmdRead, CmdWrite:
		ap := ""
		if c.AutoPrecharge {
			ap = "+AP"
		}
		return fmt.Sprintf("%s%s b%d c%d bl%d", c.Kind, ap, c.Bank, c.Col, c.BL)
	case CmdPrecharge:
		return fmt.Sprintf("PRE b%d", c.Bank)
	case CmdRefresh:
		return "REF"
	default:
		return c.Kind.String()
	}
}

// IsCAS reports whether the command is a column (data-moving) command.
func (c Command) IsCAS() bool { return c.Kind == CmdRead || c.Kind == CmdWrite }

// DataWindow describes the data-bus occupancy produced by a column
// command: the burst occupies clock cycles [Start, End). For reads the
// last data beat is delivered at cycle End-1 and the full burst is
// available to the controller at End; for writes the device has absorbed
// all data at End (write recovery then begins).
type DataWindow struct {
	Start, End int64
}

// Cycles returns the number of data-bus cycles the window occupies.
func (w DataWindow) Cycles() int64 { return w.End - w.Start }
