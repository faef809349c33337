package mapping

import (
	"fmt"

	"aanoc/internal/dram"
)

// This file is the structure-aware address-map layer: the full SDRAM
// topology — channels → bank groups → banks → subarrays → rows — as one
// invertible decomposition. The ChannelMap (channels.go) owns only the
// outermost level; StructMap composes with it and carries the levels the
// deep-DRAM device model added (DDR4 bank groups, SALP subarrays), plus
// the linear-byte-address interleaving the old dram.Mapper used to do
// with ad-hoc row/bank arithmetic. Every level is a pure bijection, so
// traces, fingerprints and the checked-mode accounting stay
// deterministic, and the property tests can pin Decode∘Encode = id over
// every generation/channel combination.

// Interleave selects how a linear byte address is decoded into the
// global bank/row/column space (absorbed from the retired dram.Mapper).
type Interleave int

const (
	// InterleaveRowBankCol: row | bank | column — consecutive pages map
	// to different banks, the common layout for streaming media buffers.
	InterleaveRowBankCol Interleave = iota
	// InterleaveBankRowCol: bank | row | column — each bank holds a
	// contiguous region (a core's buffer lives in one bank).
	InterleaveBankRowCol
)

// Coord is the fully decomposed structural coordinate of one SDRAM
// location: which channel, which bank group inside that channel, which
// bank inside the group, which subarray row buffer inside the bank, and
// the row/column within it.
type Coord struct {
	Channel  int
	Group    int // bank group within the channel
	Bank     int // bank within the group
	Subarray int // subarray row buffer within the bank
	Row      int
	Col      int
}

// String renders the coordinate outermost level first.
func (c Coord) String() string {
	return fmt.Sprintf("ch%d g%d b%d s%d r%d c%d", c.Channel, c.Group, c.Bank, c.Subarray, c.Row, c.Col)
}

// StructMap decomposes addresses along the device topology. It composes
// with a ChannelMap: the channel level reuses the ChannelMap bijection
// verbatim, the inner levels mirror how the dram.Device derives group
// (bank mod groups) and subarray (row mod subarrays) indices, so the
// map and the timing model can never disagree about structure.
//
// The zero value is not usable; construct with NewStructMap.
type StructMap struct {
	Channels ChannelMap
	// Groups is the bank-group count per channel (1 when the generation
	// has no group structure).
	Groups int
	// Subarrays is the row-buffer count per bank (1 for the classic
	// one-buffer bank).
	Subarrays int
	// Rows per bank and bytes per row, for the linear-address levels.
	Rows     int
	RowBytes int
	Scheme   Interleave
}

// NewStructMap validates the geometry against a timing package: the
// channel map's per-channel bank count must match the device, groups
// must divide the banks, and rowBytes must be a power of two. A
// BankGroups/Subarrays of 0 in the timing normalises to 1.
func NewStructMap(cm ChannelMap, t dram.Timing, scheme Interleave, rows, rowBytes int) (StructMap, error) {
	groups := t.BankGroups
	if groups < 1 {
		groups = 1
	}
	switch {
	case cm.BanksPerChannel != t.Banks:
		return StructMap{}, fmt.Errorf("mapping: channel map carries %d banks/channel but the device has %d", cm.BanksPerChannel, t.Banks)
	case t.Banks%groups != 0:
		return StructMap{}, fmt.Errorf("mapping: %d banks not divisible into %d groups", t.Banks, groups)
	case rows < 1 || rowBytes < 1:
		return StructMap{}, fmt.Errorf("mapping: invalid row geometry rows=%d rowBytes=%d", rows, rowBytes)
	case rowBytes&(rowBytes-1) != 0:
		return StructMap{}, fmt.Errorf("mapping: rowBytes %d not a power of two", rowBytes)
	}
	return StructMap{
		Channels: cm, Groups: groups, Subarrays: t.RowBuffers(),
		Rows: rows, RowBytes: rowBytes, Scheme: scheme,
	}, nil
}

// BanksPerGroup returns the banks each group holds on one channel.
func (m StructMap) BanksPerGroup() int { return m.Channels.BanksPerChannel / m.Groups }

// Split decomposes a channel-local address (what one channel's device
// sees) into the inner structural levels. It mirrors the device's own
// derivations: group = bank mod groups, subarray = row mod subarrays.
func (m StructMap) Split(ch int, local dram.Address) Coord {
	return Coord{
		Channel:  ch,
		Group:    local.Bank % m.Groups,
		Bank:     local.Bank / m.Groups,
		Subarray: local.Row % m.Subarrays,
		Row:      local.Row,
		Col:      local.Col,
	}
}

// Join is the inverse of Split: structural levels back to the owning
// channel and its local address.
func (m StructMap) Join(c Coord) (ch int, local dram.Address) {
	return c.Channel, dram.Address{
		Bank: c.Bank*m.Groups + c.Group,
		Row:  c.Row,
		Col:  c.Col,
	}
}

// Route decomposes a global address (global bank space, as carried by
// NoC packets) into its full structural coordinate: the ChannelMap picks
// the owning channel, Split derives the inner levels.
func (m StructMap) Route(a dram.Address) Coord {
	ch, local := m.Channels.Route(a)
	return m.Split(ch, local)
}

// Invert reconstructs the global address from a structural coordinate —
// the inverse of Route for in-range inputs, property-tested like the
// ChannelMap bijection.
func (m StructMap) Invert(c Coord) dram.Address {
	ch, local := m.Join(c)
	return m.Channels.Invert(ch, local)
}

// Decode maps a linear byte address all the way down to a structural
// coordinate: the interleave arithmetic produces a global bank/row/col,
// Route decomposes it.
func (m StructMap) Decode(addr int64) Coord {
	col := int(addr) & (m.RowBytes - 1)
	page := addr / int64(m.RowBytes)
	banks := m.Channels.GlobalBanks()
	var a dram.Address
	switch m.Scheme {
	case InterleaveRowBankCol:
		a = dram.Address{
			Bank: int(page) % banks,
			Row:  int(page/int64(banks)) % m.Rows,
			Col:  col,
		}
	default: // InterleaveBankRowCol
		a = dram.Address{
			Bank: int(page/int64(m.Rows)) % banks,
			Row:  int(page) % m.Rows,
			Col:  col,
		}
	}
	return m.Route(a)
}

// Encode is the inverse of Decode for in-range coordinates: structural
// levels back through the channel bijection to the linear byte address.
func (m StructMap) Encode(c Coord) int64 {
	a := m.Invert(c)
	banks := m.Channels.GlobalBanks()
	var page int64
	switch m.Scheme {
	case InterleaveRowBankCol:
		page = int64(a.Row)*int64(banks) + int64(a.Bank)
	default:
		page = int64(a.Bank)*int64(m.Rows) + int64(a.Row)
	}
	return page*int64(m.RowBytes) + int64(a.Col)
}
