package noc

import (
	"strings"
	"testing"
	"unsafe"
)

// TestClassText: the one name table serves both directions — every class
// round-trips through MarshalText/UnmarshalText under its String name,
// and a name outside the table is an error that quotes it, never another
// class.
func TestClassText(t *testing.T) {
	for c := ClassDemand; c <= ClassPeripheral; c++ {
		text, err := c.MarshalText()
		if err != nil || string(text) != c.String() {
			t.Fatalf("%d: MarshalText = %q, %v; want %q", int(c), text, err, c)
		}
		back := Class(-1)
		if err := back.UnmarshalText(text); err != nil || back != c {
			t.Errorf("%s: UnmarshalText = %v, %v", text, back, err)
		}
	}
	for _, name := range []string{"", "bulk", "Media", "Class(2)", "demnad"} {
		c := ClassMedia
		err := c.UnmarshalText([]byte(name))
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("UnmarshalText(%q) = %v, want an error naming it", name, err)
		}
		if c != ClassMedia {
			t.Errorf("UnmarshalText(%q) failed but stored %v", name, c)
		}
	}
}

// TestPacketSize: the three flags and the request slot share one word,
// so a packet is 144 bytes on a 64-bit host (160 when each flag padded
// to its own word).
func TestPacketSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Packet{}) != 144 {
		t.Errorf("Packet is %d bytes, want 144", unsafe.Sizeof(Packet{}))
	}
}
