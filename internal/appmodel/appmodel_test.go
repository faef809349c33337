package appmodel

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
	"aanoc/internal/traffic"
)

func TestAllAppsValidate(t *testing.T) {
	for _, a := range Apps() {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestBuiltinPlatforms pins every builtin's mesh, memory ports and core
// count. The paper's Blu-ray and single DTV are 9 tiles on 3x3 and its
// dual DTV 16 on 4x4: each counts the memory tile, so the models carry 8
// and 15 cores.
func TestBuiltinPlatforms(t *testing.T) {
	cases := []struct {
		name         string
		w, h         int
		ports, cores int
	}{
		{"bluray", 3, 3, 1, 8},
		{"sdtv", 3, 3, 1, 8},
		{"ddtv", 4, 4, 1, 15},
		{"bluray2", 4, 4, 2, 14},
		{"ddtv4", 6, 6, 4, 32},
	}
	for _, c := range cases {
		a, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Width != c.w || a.Height != c.h || len(a.MemPorts) != c.ports || len(a.Cores) != c.cores {
			t.Errorf("%s: %dx%d mesh, %d ports, %d cores; want %dx%d, %d, %d", c.name,
				a.Width, a.Height, len(a.MemPorts), len(a.Cores), c.w, c.h, c.ports, c.cores)
		}
		if len(a.MemPorts) == 0 || a.MemPorts[0] != (noc.Coord{X: 0, Y: 0}) {
			t.Errorf("%s: the first memory port must sit in the corner", c.name)
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

// builtinCtors are the constructors ByName's table is built from.
var builtinCtors = []func() App{BluRay, SingleDTV, DualDTV, BluRay2, QuadDTV}

// TestByNameReturnsACopy: a caller may write into every level of the
// model it got, and append to any of its slices, without the next
// ByName seeing it.
func TestByNameReturnsACopy(t *testing.T) {
	for _, ctor := range builtinCtors {
		want := ctor()
		a, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		// Appends to carved pieces must not land in a neighbour's
		// elements: the next stream's beats, the next core's streams.
		n := len(want.Cores[0].Streams)
		a.Cores[0].Streams[0].Beats = append(a.Cores[0].Streams[0].Beats, 555)
		a.Cores[0].Streams[n-1].Beats = append(a.Cores[0].Streams[n-1].Beats, 777)
		a.Cores[0].Streams = append(a.Cores[0].Streams, traffic.Stream{Name: "extra"})
		for j, s := range want.Cores[0].Streams {
			if got := a.Cores[0].Streams[j].Beats[:len(s.Beats)]; !reflect.DeepEqual(got, s.Beats) {
				t.Errorf("%s: an append wrote into %s's beats: %v", want.Name, s.Name, got)
			}
		}
		if !reflect.DeepEqual(a.Cores[1:], want.Cores[1:]) {
			t.Errorf("%s: an append to core 0 wrote into core 1", want.Name)
		}
		a.MemPorts[0] = noc.Coord{X: 9, Y: 9}
		a.Cores[0].Name = "edited"
		a.Cores[0].Streams[0].LoadFrac = 42
		a.Cores[0].Streams[0].Beats[0] = 999
		if b, _ := ByName(want.Name); !reflect.DeepEqual(b, want) {
			t.Errorf("%s: an edit to one ByName result reached the next", want.Name)
		}
	}
}

// TestCloneKeepsNilAndEmptyApart: a nil slice clones to nil and an empty
// one to empty, at every level.
func TestCloneKeepsNilAndEmptyApart(t *testing.T) {
	a := App{Name: "x", Cores: []Core{
		{Name: "nil"},
		{Name: "empty", Streams: []traffic.Stream{}},
		{Name: "beats", Streams: []traffic.Stream{{Name: "nil"}, {Name: "empty", Beats: []int{}}}},
	}}
	c := a.clone()
	if !reflect.DeepEqual(c, a) {
		t.Fatalf("clone differs:\n%+v\n%+v", c, a)
	}
	if c.MemPorts != nil || c.Cores[0].Streams != nil || c.Cores[1].Streams == nil ||
		c.Cores[2].Streams[0].Beats != nil || c.Cores[2].Streams[1].Beats == nil {
		t.Errorf("nil and empty slices not kept apart: %#v", c)
	}
	a.MemPorts = []noc.Coord{}
	if c := a.clone(); c.MemPorts == nil {
		t.Error("empty MemPorts cloned to nil")
	}
}

// TestByNameAllocs: a lookup is one copy of the model built at init:
// ports, cores, a stream slab and a beat slab.
func TestByNameAllocs(t *testing.T) {
	for _, ctor := range builtinCtors {
		name := ctor().Name
		if got := testing.AllocsPerRun(100, func() { ByName(name) }); got > 4 {
			t.Errorf("ByName(%q) allocates %.0f times, want at most 4", name, got)
		}
	}
}

// TestKnownBuildsNothing: the name check ByName's callers validate with
// agrees with ByName and allocates nothing.
func TestKnownBuildsNothing(t *testing.T) {
	for _, name := range []string{"bluray", "sdtv", "ddtv", "bluray2", "ddtv4", "lowutil", "", "nope"} {
		_, err := ByName(name)
		if Known(name) != (err == nil) {
			t.Errorf("Known(%q) = %v, ByName error %v", name, Known(name), err)
		}
		if got := testing.AllocsPerRun(100, func() { Known(name) }); got != 0 {
			t.Errorf("Known(%q) allocates %.0f times", name, got)
		}
	}
	_, err := ByName("nope")
	if want := `appmodel: unknown application "nope" (want bluray, sdtv, ddtv, bluray2 or ddtv4)`; err == nil || err.Error() != want {
		t.Errorf("ByName error %v, want %s", err, want)
	}
}

// TestByNameConcurrentClones: goroutines that each look models up and
// write into them share nothing (the race job runs this).
func TestByNameConcurrentClones(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				ctor := builtinCtors[(g+i)%len(builtinCtors)]
				a, err := ByName(ctor().Name)
				if err != nil {
					t.Error(err)
					return
				}
				for c := range a.Cores {
					a.Cores[c].Name += "!"
					for s := range a.Cores[c].Streams {
						a.Cores[c].Streams[s].LoadFrac = float64(g)
						a.Cores[c].Streams[s].Beats[0] = g
					}
				}
				a.MemPorts[0].X = g
			}
		}()
	}
	wg.Wait()
	for _, ctor := range builtinCtors {
		if a, _ := ByName(ctor().Name); !reflect.DeepEqual(a, ctor()) {
			t.Errorf("%s: concurrent edits reached the table", a.Name)
		}
	}
}

// TestValidateErrorsPinned gives each structural rejection's exact
// message, so a change to how Validate tracks positions cannot reword
// one.
func TestValidateErrorsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*App)
		want string
	}{
		{"port outside the mesh", func(a *App) { a.MemPorts = []noc.Coord{{X: 0, Y: 0}, {X: 9, Y: 9}} },
			"appmodel: bluray2 memory port 1 at (9,9) outside 4x4"},
		{"port-port collision", func(a *App) { a.MemPorts = []noc.Coord{{X: 3, Y: 3}, {X: 0, Y: 0}, {X: 3, Y: 3}} },
			"appmodel: bluray2 memory port 2 collides with memory port 0 at (3,3)"},
		{"core on a port", func(a *App) { a.MemPorts = []noc.Coord{{X: 0, Y: 0}, a.Cores[0].Pos} },
			"appmodel: bluray2 cores memory port 1 and enhancer0 share (1,0)"},
		{"core-core share", func(a *App) { a.Cores[5].Pos = a.Cores[1].Pos },
			"appmodel: bluray2 cores formatconv0 and gfx0 share (0,1)"},
		// The first collision in owner order is reported, not the one
		// whose earlier holder comes first.
		{"two collisions", func(a *App) { a.Cores[6].Pos = a.Cores[0].Pos; a.Cores[5].Pos = a.Cores[3].Pos },
			"appmodel: bluray2 cores cpu0 and gfx0 share (2,0)"},
		{"unnamed core", func(a *App) { a.Cores[1].Name = "" },
			"appmodel: bluray2 has an unnamed core"},
		{"core with no streams", func(a *App) { a.Cores[1].Streams = nil },
			"appmodel: bluray2 core formatconv0 has no streams"},
	} {
		a := BluRay2()
		c.edit(&a)
		if err := a.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %s", c.name, err, c.want)
		}
	}
}

// TestValidateMemoryIsByPortsAndCores: Validate keeps no bookkeeping —
// not of the mesh a spec declares, nor of its ports and cores.
func TestValidateMemoryIsByPortsAndCores(t *testing.T) {
	a := App{Name: "huge", Mesh: Mesh{Width: 1 << 20, Height: 1 << 20}, MemPorts: []noc.Coord{{X: 0, Y: 0}},
		Cores: []Core{
			Streamer("s", noc.Coord{X: 1 << 19, Y: 1 << 19}, 1, []int{64}, 0.2, 0.5),
			CPU("cpu", noc.Coord{X: 1<<20 - 1, Y: 1<<20 - 1}, 2, 40, 0.04),
			Background("bg", noc.Coord{X: 0, Y: 1<<20 - 1}, 3, []int{4}, 0.02, 0.5, traffic.Random),
		}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { a.Validate() }); got != 0 {
		t.Errorf("Validate on a %dx%d mesh allocates %.0f times, want none", a.Width, a.Height, got)
	}
}

// TestWithLoad: open-loop loads scale by f and cap at the whole bus,
// closed-loop streams keep their (absent) load, the input model is left
// as it was, and a NaN factor gives a model Validate refuses.
func TestWithLoad(t *testing.T) {
	base := BluRay()
	for _, f := range []float64{0.5, 1, 3} {
		scaled := WithLoad(base, f)
		if err := scaled.Validate(); err != nil {
			t.Fatalf("f=%v: %v", f, err)
		}
		for i, c := range scaled.Cores {
			for j, s := range c.Streams {
				was := base.Cores[i].Streams[j]
				want := min(was.LoadFrac*f, 1)
				if was.ClosedLoop {
					want = was.LoadFrac
				}
				if s.LoadFrac != want {
					t.Errorf("f=%v: %s/%s load %v, want %v", f, c.Name, s.Name, s.LoadFrac, want)
				}
			}
		}
	}
	if !reflect.DeepEqual(base, BluRay()) {
		t.Error("WithLoad changed the model it was given")
	}
	nan := WithLoad(base, math.NaN())
	if err := nan.Validate(); err == nil {
		t.Error("a NaN load factor gives a model that validates")
	}
}
