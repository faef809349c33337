package mapping

import (
	"reflect"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

// The interleaving properties the multi-channel subsystem rests on:
// every global address routes to exactly one (channel, local bank), the
// local bank is always in range, and Invert reconstructs the global
// address — for both schemes, across channel counts.

func geometries() []ChannelMap {
	var out []ChannelMap
	for _, c := range []int{1, 2, 4, 8} {
		for _, b := range []int{4, 8} {
			for _, s := range []ChannelScheme{BankThenChannel, ChannelThenBankXOR} {
				m, err := NewChannelMap(s, c, b)
				if err != nil {
					panic(err)
				}
				out = append(out, m)
			}
		}
	}
	return out
}

func TestRouteCoversEveryChannelExactlyOnce(t *testing.T) {
	for _, m := range geometries() {
		// For any fixed row, walking the full global bank space must hit
		// every (channel, local bank) pair exactly once: the interleaving
		// is a bijection from global banks to channel-local banks.
		for _, row := range []int{0, 1, 7, 1023} {
			seen := map[[2]int]int{}
			for gb := 0; gb < m.GlobalBanks(); gb++ {
				ch, local := m.Route(dram.Address{Bank: gb, Row: row, Col: 64})
				if ch < 0 || ch >= m.Channels {
					t.Fatalf("%v: bank %d row %d routed to channel %d of %d", m, gb, row, ch, m.Channels)
				}
				if local.Bank < 0 || local.Bank >= m.BanksPerChannel {
					t.Fatalf("%v: bank %d row %d local bank %d of %d", m, gb, row, local.Bank, m.BanksPerChannel)
				}
				if local.Row != row || local.Col != 64 {
					t.Fatalf("%v: routing changed row/col: %+v", m, local)
				}
				seen[[2]int{ch, local.Bank}]++
			}
			if len(seen) != m.GlobalBanks() {
				t.Fatalf("%v row %d: %d distinct (channel,bank) pairs over %d global banks",
					m, row, len(seen), m.GlobalBanks())
			}
		}
	}
}

func TestRouteInvertRoundTrip(t *testing.T) {
	rng := sim.NewRNG(0xC0FFEE)
	for _, m := range geometries() {
		for i := 0; i < 2000; i++ {
			a := dram.Address{
				Bank: rng.Intn(m.GlobalBanks()),
				Row:  rng.Intn(8192),
				Col:  rng.Intn(1024),
			}
			ch, local := m.Route(a)
			back := m.Invert(ch, local)
			if back != a {
				t.Fatalf("%v: %+v -> (ch %d, %+v) -> %+v", m, a, ch, local, back)
			}
		}
	}
}

func TestSingleChannelRouteIsIdentity(t *testing.T) {
	for _, s := range []ChannelScheme{BankThenChannel, ChannelThenBankXOR} {
		m, err := NewChannelMap(s, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		for gb := 0; gb < 8; gb++ {
			a := dram.Address{Bank: gb, Row: 42, Col: 8}
			ch, local := m.Route(a)
			if ch != 0 || local != a {
				t.Fatalf("%s: single-channel Route(%+v) = (ch %d, %+v), want identity", s, a, ch, local)
			}
		}
	}
}

func TestXORSpreadsSameBankAcrossRows(t *testing.T) {
	// The XOR fold's purpose: a stream camping on one global bank while
	// walking rows must still touch more than one channel.
	m, err := NewChannelMap(ChannelThenBankXOR, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for row := 0; row < 8; row++ {
		ch, _ := m.Route(dram.Address{Bank: 5, Row: row})
		seen[ch] = true
	}
	if len(seen) < 2 {
		t.Fatalf("XOR scheme kept bank 5 on %d channel(s) across rows", len(seen))
	}
}

func TestNewChannelMapValidation(t *testing.T) {
	if _, err := NewChannelMap(ChannelThenBankXOR, 3, 8); err == nil {
		t.Error("XOR scheme accepted 3 channels (not a power of two)")
	}
	if _, err := NewChannelMap(BankThenChannel, 3, 8); err != nil {
		t.Errorf("bank-then-channel rejected 3 channels: %v", err)
	}
	if _, err := NewChannelMap(BankThenChannel, 0, 8); err == nil {
		t.Error("accepted 0 channels")
	}
	if _, err := NewChannelMap(ChannelScheme(99), 2, 8); err == nil {
		t.Error("accepted unknown scheme")
	}
}

func TestParseChannelSchemeRoundTrip(t *testing.T) {
	for _, s := range []ChannelScheme{BankThenChannel, ChannelThenBankXOR} {
		got, err := ParseChannelScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseChannelScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseChannelScheme("nope"); err == nil {
		t.Error("ParseChannelScheme accepted garbage")
	}
}

// TestRoutersByPortDistanceSinglePort pins the single-memory ordering of
// the Fig. 8 sweep: nearest first, ties broken row-major.
func TestRoutersByPortDistanceSinglePort(t *testing.T) {
	order := RoutersByPortDistance(3, 3, []noc.Coord{{X: 0, Y: 0}})
	want := []noc.Coord{
		{X: 0, Y: 0},
		{X: 1, Y: 0}, {X: 0, Y: 1},
		{X: 2, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 2},
		{X: 2, Y: 1}, {X: 1, Y: 2},
		{X: 2, Y: 2},
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestRoutersByPortDistanceNearestFirst(t *testing.T) {
	ports := []noc.Coord{{X: 0, Y: 0}, {X: 3, Y: 3}}
	order := RoutersByPortDistance(4, 4, ports)
	if len(order) != 16 {
		t.Fatalf("got %d routers, want 16", len(order))
	}
	dist := func(c noc.Coord) int {
		d0, d1 := noc.HopDistance(c, ports[0]), noc.HopDistance(c, ports[1])
		if d1 < d0 {
			return d1
		}
		return d0
	}
	for i := 1; i < len(order); i++ {
		if dist(order[i]) < dist(order[i-1]) {
			t.Fatalf("order not by min port distance at %d: %+v after %+v", i, order[i], order[i-1])
		}
	}
	if order[0] != ports[0] && order[0] != ports[1] {
		t.Fatalf("nearest router %+v is not a port", order[0])
	}
}
