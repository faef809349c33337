package appmodel

import (
	"reflect"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

func TestAllAppsValidate(t *testing.T) {
	for _, a := range Apps() {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestCoreCountsMatchPaper(t *testing.T) {
	// The paper: Blu-ray and single DTV have 9 cores (8 IPs + memory) on
	// 3x3; dual DTV has 16 cores (15 IPs + memory) on 4x4.
	cases := []struct {
		app   App
		cores int
		w, h  int
	}{
		{BluRay(), 8, 3, 3},
		{SingleDTV(), 8, 3, 3},
		{DualDTV(), 15, 4, 4},
	}
	for _, c := range cases {
		if len(c.app.Cores) != c.cores {
			t.Errorf("%s: %d cores, want %d", c.app.Name, len(c.app.Cores), c.cores)
		}
		if c.app.Width != c.w || c.app.Height != c.h {
			t.Errorf("%s: mesh %dx%d, want %dx%d", c.app.Name, c.app.Width, c.app.Height, c.w, c.h)
		}
		if len(c.app.MemPorts) != 1 || c.app.MemPorts[0] != (noc.Coord{X: 0, Y: 0}) {
			t.Errorf("%s: memory subsystem must sit in the corner", c.app.Name)
		}
	}
}

func TestClockPointsMatchPaper(t *testing.T) {
	want := map[string]map[dram.Generation]int{
		"bluray": {dram.DDR1: 133, dram.DDR2: 266, dram.DDR3: 533},
		"sdtv":   {dram.DDR1: 166, dram.DDR2: 333, dram.DDR3: 667},
		"ddtv":   {dram.DDR1: 200, dram.DDR2: 400, dram.DDR3: 800},
	}
	for _, a := range Apps() {
		for gen, mhz := range want[a.Name] {
			if a.Clocks.At(gen) != mhz {
				t.Errorf("%s %s: clock %d, want %d", a.Name, gen, a.Clocks.At(gen), mhz)
			}
			if _, err := dram.Speed(gen, mhz); err != nil {
				t.Errorf("%s: no timing grade: %v", a.Name, err)
			}
		}
	}
}

func TestLoadsSaturate(t *testing.T) {
	// The evaluation regime needs offered load near or above the data-bus
	// capacity so utilization measures scheduling efficiency.
	for _, a := range Apps() {
		if l := a.TotalLoad(); l < 0.7 || l > 1.6 {
			t.Errorf("%s: open-loop load %v outside saturation band", a.Name, l)
		}
	}
}

func TestEveryAppHasOneDemandStream(t *testing.T) {
	for _, a := range Apps() {
		demand := 0
		for _, c := range a.Cores {
			for _, s := range c.Streams {
				if s.Class == noc.ClassDemand {
					demand++
					if !s.ClosedLoop {
						t.Errorf("%s %s: demand stream must be closed loop", a.Name, s.Name)
					}
				}
			}
		}
		if demand != 1 {
			t.Errorf("%s: %d demand streams, want 1 (the microprocessor)", a.Name, demand)
		}
	}
}

func TestLongPacketCoresPresent(t *testing.T) {
	// The paper's motivation: enhancer/format-converter packets of 64 BL
	// (128 beats) must exist in every model.
	for _, a := range Apps() {
		found := false
		for _, c := range a.Cores {
			for _, s := range c.Streams {
				for _, b := range s.Beats {
					if b >= 96 {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("%s: no long-packet streaming core", a.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("bluray"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("want error for unknown app")
	}
}

func TestHeavyCoresAdjacentToMemory(t *testing.T) {
	// A3MAP-style placement: the heaviest streaming core must be one hop
	// from the memory subsystem.
	for _, a := range Apps() {
		var heaviest Core
		var load float64
		for _, c := range a.Cores {
			var l float64
			for _, s := range c.Streams {
				l += s.LoadFrac
			}
			if l > load {
				load, heaviest = l, c
			}
		}
		if d := noc.HopDistance(heaviest.Pos, a.MemPorts[0]); d != 1 {
			t.Errorf("%s: heaviest core %s at distance %d, want 1", a.Name, heaviest.Name, d)
		}
	}
}

func TestScaledAppsValidate(t *testing.T) {
	for _, a := range Scaled() {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestScaledAppGeometry(t *testing.T) {
	b2 := BluRay2()
	if len(b2.Ports()) != 2 || len(b2.Cores) != 14 || b2.Width != 4 || b2.Height != 4 {
		t.Errorf("bluray2 geometry: %d ports, %d cores, %dx%d", len(b2.Ports()), len(b2.Cores), b2.Width, b2.Height)
	}
	q4 := QuadDTV()
	if len(q4.Ports()) != 4 || len(q4.Cores) != 32 || q4.Width != 6 || q4.Height != 6 {
		t.Errorf("ddtv4 geometry: %d ports, %d cores, %dx%d", len(q4.Ports()), len(q4.Cores), q4.Width, q4.Height)
	}
	// Paper apps stay single-port, and every scaled app's port 0 is the
	// canonical corner.
	corner := noc.Coord{X: 0, Y: 0}
	for _, a := range Apps() {
		if len(a.Ports()) != 1 {
			t.Errorf("%s: paper app should have a single port", a.Name)
		}
	}
	for _, a := range Scaled() {
		if a.Ports()[0] != corner {
			t.Errorf("%s: MemPorts[0] %v, want %v", a.Name, a.Ports()[0], corner)
		}
	}
}

func TestScaledLoadsSaturatePerChannel(t *testing.T) {
	// Each scaled model must offer roughly one saturated SDRAM's load per
	// channel, otherwise the extra channels have nothing to absorb.
	for _, a := range Scaled() {
		perChannel := a.TotalLoad() / float64(len(a.Ports()))
		if perChannel < 0.6 {
			t.Errorf("%s offers %.2f open-loop load per channel (< 0.6, under-loaded)", a.Name, perChannel)
		}
	}
}

func TestByNameFindsScaled(t *testing.T) {
	for _, name := range []string{"bluray2", "ddtv4"} {
		a, err := ByName(name)
		if err != nil || a.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, a.Name, err)
		}
	}
	// Every builtin name returns exactly what its constructor builds.
	for _, want := range append(Apps(), Scaled()...) {
		got, err := ByName(want.Name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) differs from its constructor (err %v)", want.Name, err)
		}
	}
	if len(Apps()) != 3 {
		t.Errorf("Apps() must stay the paper's three models, got %d", len(Apps()))
	}
}

func TestValidateRejectsBadPorts(t *testing.T) {
	for name, edit := range map[string]func(*App){
		"no memory ports":         func(a *App) { a.MemPorts = nil },
		"out-of-mesh memory port": func(a *App) { a.MemPorts = []noc.Coord{{X: 0, Y: 0}, {X: 9, Y: 9}} },
		"duplicate memory ports":  func(a *App) { a.MemPorts = []noc.Coord{{X: 0, Y: 0}, {X: 0, Y: 0}} },
		"memory port on a core":   func(a *App) { a.MemPorts = []noc.Coord{{X: 0, Y: 0}, a.Cores[0].Pos} },
		"no name":                 func(a *App) { a.Name = "" },
		"empty mesh":              func(a *App) { a.Mesh = Mesh{} },
		"unnamed core":            func(a *App) { a.Cores[1].Name = "" },
		"core without streams":    func(a *App) { a.Cores[1].Streams = nil },
	} {
		a := BluRay2()
		edit(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("accepted %s", name)
		}
	}
}
