package mapping

import (
	"fmt"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/sim"
)

// The structural-map properties the deep-DRAM stack rests on: the full
// decomposition (channel → group → bank → subarray → row/col) is a
// bijection over every generation's real geometry — bank groups on
// DDR4, flat banks elsewhere, with and without subarray row buffers —
// composed with both channel-interleaving schemes.

// The inverses of Split, Route and Decode, and Coord's rendering in
// failure messages: the oracles the round-trip properties hold the map to.

// String renders the coordinate outermost level first.
func (c Coord) String() string {
	return fmt.Sprintf("ch%d g%d b%d s%d r%d c%d", c.Channel, c.Group, c.Bank, c.Subarray, c.Row, c.Col)
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

// Invert reconstructs the global address from a structural coordinate —
// the inverse of Route for in-range inputs, property-tested like the
// ChannelMap bijection.
func (m StructMap) Invert(c Coord) dram.Address {
	ch, local := m.Join(c)
	return m.Channels.Invert(ch, local)
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

// structGeometries builds a StructMap for every generation × channel ×
// scheme × subarray combination, pairing each with its timing package.
func structGeometries(t *testing.T) []StructMap {
	t.Helper()
	var out []StructMap
	for gen := dram.DDR1; gen <= dram.LPDDR3; gen++ {
		tm := dram.MustSpeed(gen, dram.DefaultClock(gen))
		for _, subs := range []int{0, 2, 4} {
			for _, chans := range []int{1, 2, 4} {
				for _, sch := range []ChannelScheme{BankThenChannel, ChannelThenBankXOR} {
					if sch == ChannelThenBankXOR && chans&(chans-1) != 0 {
						continue
					}
					cm, err := NewChannelMap(sch, chans, tm.Banks)
					if err != nil {
						t.Fatal(err)
					}
					for _, il := range []Interleave{InterleaveRowBankCol, InterleaveBankRowCol} {
						m, err := NewStructMap(cm, tm.WithSubarrays(subs), il, 4096, 1024)
						if err != nil {
							t.Fatalf("%s subs=%d chans=%d: %v", gen, subs, chans, err)
						}
						out = append(out, m)
					}
				}
			}
		}
	}
	return out
}

func TestStructMapMirrorsTimingStructure(t *testing.T) {
	for gen := dram.DDR1; gen <= dram.LPDDR3; gen++ {
		tm := dram.MustSpeed(gen, dram.DefaultClock(gen))
		cm, err := NewChannelMap(BankThenChannel, 1, tm.Banks)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewStructMap(cm, tm, InterleaveRowBankCol, 4096, 1024)
		if err != nil {
			t.Fatal(err)
		}
		// Split must agree with the device's own derivations for every
		// local bank and a spread of rows.
		for b := 0; b < tm.Banks; b++ {
			for _, row := range []int{0, 1, 5, 4095} {
				c := m.Split(0, dram.Address{Bank: b, Row: row, Col: 8})
				if c.Group != tm.GroupOf(b) {
					t.Fatalf("%s bank %d: Split group %d, timing GroupOf %d", gen, b, c.Group, tm.GroupOf(b))
				}
				if c.Subarray != tm.SubarrayOf(row) {
					t.Fatalf("%s row %d: Split subarray %d, timing SubarrayOf %d", gen, row, c.Subarray, tm.SubarrayOf(row))
				}
				if perGroup := m.Channels.BanksPerChannel / m.Groups; c.Bank < 0 || c.Bank >= perGroup {
					t.Fatalf("%s bank %d: in-group index %d of %d", gen, b, c.Bank, perGroup)
				}
			}
		}
	}
}

func TestStructMapRouteInvertRoundTrip(t *testing.T) {
	rng := sim.NewRNG(0x57121C7)
	for _, m := range structGeometries(t) {
		for i := 0; i < 500; i++ {
			a := dram.Address{
				Bank: rng.Intn(m.Channels.GlobalBanks()),
				Row:  rng.Intn(m.Rows),
				Col:  rng.Intn(m.RowBytes),
			}
			c := m.Route(a)
			if back := m.Invert(c); back != a {
				t.Fatalf("%+v: %+v -> %v -> %+v", m, a, c, back)
			}
		}
	}
}

func TestStructMapSplitCoversEveryCoordOnce(t *testing.T) {
	for _, m := range structGeometries(t) {
		// For a fixed row, walking one channel's local bank space must hit
		// every (group, in-group bank) pair exactly once.
		seen := map[[2]int]bool{}
		for b := 0; b < m.Channels.BanksPerChannel; b++ {
			c := m.Split(0, dram.Address{Bank: b, Row: 3})
			if c.Group < 0 || c.Group >= m.Groups {
				t.Fatalf("%+v: bank %d group %d of %d", m, b, c.Group, m.Groups)
			}
			key := [2]int{c.Group, c.Bank}
			if seen[key] {
				t.Fatalf("%+v: bank %d re-hits group %d bank %d", m, b, c.Group, c.Bank)
			}
			seen[key] = true
		}
		if len(seen) != m.Channels.BanksPerChannel {
			t.Fatalf("%+v: %d pairs over %d banks", m, len(seen), m.Channels.BanksPerChannel)
		}
	}
}

func TestStructMapDecodeEncodeRoundTrip(t *testing.T) {
	rng := sim.NewRNG(0xDEC0DE)
	for _, m := range structGeometries(t) {
		span := int64(m.Channels.GlobalBanks()) * int64(m.Rows) * int64(m.RowBytes)
		for i := 0; i < 500; i++ {
			addr := int64(rng.Uint64() % uint64(span))
			c := m.Decode(addr)
			if back := m.Encode(c); back != addr {
				t.Fatalf("%+v: %#x -> %v -> %#x", m, addr, c, back)
			}
			if c.Subarray != c.Row%m.Subarrays {
				t.Fatalf("%+v: coord %v subarray disagrees with row", m, c)
			}
		}
	}
}

func TestNewStructMapValidation(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR4, 1200)
	cm, err := NewChannelMap(BankThenChannel, 2, tm.Banks)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		cm   ChannelMap
		tm   dram.Timing
		rows int
		rb   int
	}{
		{"bank mismatch", ChannelMap{Scheme: BankThenChannel, Channels: 2, BanksPerChannel: tm.Banks + 1}, tm, 4096, 1024},
		{"zero rows", cm, tm, 0, 1024},
		{"rowBytes not power of two", cm, tm, 4096, 1000},
	}
	for _, c := range bad {
		if _, err := NewStructMap(c.cm, c.tm, InterleaveRowBankCol, c.rows, c.rb); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	// Zero-valued structure in the timing normalises to 1.
	flat := dram.MustSpeed(dram.DDR2, 333)
	fcm, err := NewChannelMap(BankThenChannel, 1, flat.Banks)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewStructMap(fcm, flat, InterleaveRowBankCol, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if m.Groups != 1 || m.Subarrays != 1 {
		t.Fatalf("flat generation normalised to groups=%d subs=%d", m.Groups, m.Subarrays)
	}
}
