// Package mapping decides where a memory request goes: the multi-channel
// interleaving policy (ChannelMap), the structural address map over the
// full SDRAM topology (StructMap), and the order in which routers become
// GSS routers, nearest the memory ports first (RoutersByPortDistance).
package mapping

import (
	"fmt"
	"sort"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// This file is the multi-channel address-interleaving policy: with N
// independent SDRAM channels behind N mesh ejection ports, every memory
// request must be routed to exactly one owning channel, and the mapping
// must spread each application's bank walk across the channels so the
// aggregate bandwidth actually materialises.
//
// Requests carry decoded addresses whose Bank field is a *global* bank
// index in [0, Channels*BanksPerChannel): the application's traffic
// generators walk the global bank space, and the ChannelMap folds each
// global bank into an owning channel plus the bank index the channel's
// own device sees. Routing is a pure function of the address, so capture
// and replay traces, the sweep fingerprint cache, and the checked-mode
// accounting all stay deterministic.

// ChannelScheme selects how global bank indices interleave across
// channels.
type ChannelScheme int

const (
	// BankThenChannel places the channel bits above the bank bits:
	// banks 0..B-1 live on channel 0, banks B..2B-1 on channel 1, and so
	// on. Streams that walk banks sequentially drain one channel before
	// touching the next — the contiguous layout, analogous to
	// InterleaveBankRowCol one level up.
	BankThenChannel ChannelScheme = iota
	// ChannelThenBankXOR places the channel bits below the bank bits and
	// XOR-folds the row's low bits into the channel selection:
	// consecutive global banks land on different channels, and two
	// streams camping on the same global bank but different rows still
	// spread across channels. The XOR fold requires a power-of-two
	// channel count.
	ChannelThenBankXOR
)

// String names the scheme ("bank-chan", "chan-bank-xor").
func (s ChannelScheme) String() string {
	switch s {
	case BankThenChannel:
		return "bank-chan"
	case ChannelThenBankXOR:
		return "chan-bank-xor"
	default:
		return fmt.Sprintf("ChannelScheme(%d)", int(s))
	}
}

// ParseChannelScheme resolves a scheme from its short name.
func ParseChannelScheme(s string) (ChannelScheme, error) {
	switch s {
	case "bank-chan", "bank-then-channel":
		return BankThenChannel, nil
	case "chan-bank-xor", "channel-then-bank", "xor":
		return ChannelThenBankXOR, nil
	}
	return 0, fmt.Errorf("mapping: unknown channel scheme %q (want bank-chan or chan-bank-xor)", s)
}

// ChannelMap routes decoded addresses in a multi-channel memory
// subsystem: it owns the global-bank-to-channel interleaving and its
// inverse. The zero value is not usable; construct with NewChannelMap.
type ChannelMap struct {
	Scheme          ChannelScheme
	Channels        int
	BanksPerChannel int
}

// NewChannelMap validates the geometry. The XOR scheme requires a
// power-of-two channel count (the fold is a bit mask).
func NewChannelMap(scheme ChannelScheme, channels, banksPerChannel int) (ChannelMap, error) {
	if channels < 1 || banksPerChannel < 1 {
		return ChannelMap{}, fmt.Errorf("mapping: invalid channel geometry %d channels x %d banks", channels, banksPerChannel)
	}
	switch scheme {
	case BankThenChannel:
	case ChannelThenBankXOR:
		if channels&(channels-1) != 0 {
			return ChannelMap{}, fmt.Errorf("mapping: %s needs a power-of-two channel count, got %d", scheme, channels)
		}
	default:
		return ChannelMap{}, fmt.Errorf("mapping: unknown channel scheme %d", scheme)
	}
	return ChannelMap{Scheme: scheme, Channels: channels, BanksPerChannel: banksPerChannel}, nil
}

// GlobalBanks returns the size of the global bank space the traffic
// generators walk: Channels x BanksPerChannel.
func (m ChannelMap) GlobalBanks() int { return m.Channels * m.BanksPerChannel }

// Route maps an address with a global bank index to its owning channel
// and the local address that channel's device sees (the bank folded into
// [0, BanksPerChannel); row and column pass through). Out-of-range
// global banks wrap — a replayed trace captured under a different
// channel count still routes deterministically.
func (m ChannelMap) Route(a dram.Address) (ch int, local dram.Address) {
	gb := a.Bank % m.GlobalBanks()
	if gb < 0 {
		gb += m.GlobalBanks()
	}
	local = a
	switch m.Scheme {
	case ChannelThenBankXOR:
		cbits := gb % m.Channels
		ch = cbits ^ (a.Row & (m.Channels - 1))
		local.Bank = gb / m.Channels
	default: // BankThenChannel
		ch = gb / m.BanksPerChannel
		local.Bank = gb % m.BanksPerChannel
	}
	return ch, local
}

// Invert reconstructs the global address from an owning channel and the
// local address its device saw — the inverse of Route for in-range
// inputs, which the property tests pin.
func (m ChannelMap) Invert(ch int, local dram.Address) dram.Address {
	a := local
	switch m.Scheme {
	case ChannelThenBankXOR:
		cbits := ch ^ (local.Row & (m.Channels - 1))
		a.Bank = local.Bank*m.Channels + cbits
	default: // BankThenChannel
		a.Bank = ch*m.BanksPerChannel + local.Bank
	}
	return a
}

// RoutersByPortDistance orders all mesh coordinates by hop distance to
// the nearest memory port (then row-major): the Fig. 8 experiment
// replaces conventional routers with GSS routers from the memory side
// outward, and with several channels "the memory side" is the set of
// ports.
func RoutersByPortDistance(width, height int, ports []noc.Coord) []noc.Coord {
	dist := func(c noc.Coord) int {
		best := noc.HopDistance(c, ports[0])
		for _, p := range ports[1:] {
			if d := noc.HopDistance(c, p); d < best {
				best = d
			}
		}
		return best
	}
	var out []noc.Coord
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			out = append(out, noc.Coord{X: x, Y: y})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		da, db := dist(out[a]), dist(out[b])
		if da != db {
			return da < db
		}
		if out[a].Y != out[b].Y {
			return out[a].Y < out[b].Y
		}
		return out[a].X < out[b].X
	})
	return out
}
