// Package appmodel defines the three industrial multimedia applications
// the paper benchmarks — a Blu-ray player model, a single-DTV model (3x3
// mesh, 8 cores each) and a dual-DTV model (4x4 mesh, 15 cores); the
// paper's 9, 9 and 16 count the memory tile — as
// core/stream specifications for the traffic package, plus the Fig. 7
// style placement (memory subsystem in the corner, bandwidth-hungry cores
// adjacent, per A3MAP).
//
// The original traffic is proprietary; these models are the documented
// substitution. Core classes and packet-length mixes follow the paper's
// descriptions: H.264/MPEG codecs issue short motion-compensation reads
// (8-48 bytes — 2-12 beats on the 32-bit bus — many of them below the
// BL8 access granularity, the Fig. 2 mismatch), video enhancers and
// format converters issue 64-burst-length packets (128 beats),
// microprocessors issue cache-line demand misses (closed loop, several
// outstanding) plus prefetches, and audio/OSD/peripheral cores add
// low-rate sub-granularity background traffic. Offered loads are
// calibrated so the designs saturate the SDRAM, the paper's regime.
package appmodel

import (
	"fmt"
	"slices"
	"strings"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
	"aanoc/internal/sim"
	"aanoc/internal/traffic"
)

// RowBeats is the row (page) size in data beats: a 2 KiB page over the
// paper's 32-bit data bus.
const RowBeats = 512

// Core is one IP block: a mesh position and its request streams.
type Core struct {
	Name    string           `json:"name"`
	Pos     noc.Coord        `json:"at"`
	Streams []traffic.Stream `json:"streams"`
}

// Mesh is the platform's mesh dimensions.
type Mesh struct {
	Width  int `json:"width"`
	Height int `json:"height"`
}

// Clocks lists the memory clock per DDR generation, in MHz (the paper's
// Table I rows for the builtin models). Zero means unset: a run on that
// generation defaults to its fastest standard grade (dram.DefaultClock).
// The builtin media platforms carry the classic three only.
type Clocks struct {
	DDR1   int `json:"ddr1"`
	DDR2   int `json:"ddr2"`
	DDR3   int `json:"ddr3"`
	DDR4   int `json:"ddr4,omitempty"`
	LPDDR3 int `json:"lpddr3,omitempty"`
}

// At returns the clock for a generation, 0 when unset or unknown.
func (c Clocks) At(gen dram.Generation) int {
	switch gen {
	case dram.DDR1:
		return c.DDR1
	case dram.DDR2:
		return c.DDR2
	case dram.DDR3:
		return c.DDR3
	case dram.DDR4:
		return c.DDR4
	case dram.LPDDR3:
		return c.LPDDR3
	}
	return 0
}

// App is a complete application model, and — through its json tags — the
// platform half of a scenario spec file: scenario.Spec embeds it.
type App struct {
	Name string `json:"name"`
	Mesh `json:"mesh"`
	// MemPorts lists the mesh ejection ports of the memory subsystem's
	// SDRAM channels, in channel order; MemPorts[0] is the canonical
	// single-channel port (the paper's system has just that one).
	MemPorts []noc.Coord `json:"memPorts"`
	Clocks   Clocks      `json:"clocks"`
	Cores    []Core      `json:"cores"`
}

// Ports returns the memory channel ports, in channel order.
func (a *App) Ports() []noc.Coord { return a.MemPorts }

// Validate checks the platform's structure — a name, a mesh, at least
// one memory port, named cores with at least one stream each, every
// position on the mesh and used once — and every stream specification.
func (a *App) Validate() error {
	switch {
	case a.Name == "":
		return fmt.Errorf("appmodel: application has no name")
	case a.Width < 1 || a.Height < 1:
		return fmt.Errorf("appmodel: %s mesh %dx%d", a.Name, a.Width, a.Height)
	case len(a.MemPorts) == 0:
		return fmt.Errorf("appmodel: %s has no memory ports", a.Name)
	case len(a.Cores) == 0:
		return fmt.Errorf("appmodel: %s has no cores", a.Name)
	}
	for i, p := range a.MemPorts {
		if p.X < 0 || p.X >= a.Width || p.Y < 0 || p.Y >= a.Height {
			return fmt.Errorf("appmodel: %s memory port %d at %v outside %dx%d", a.Name, i, p, a.Width, a.Height)
		}
		if prev := a.takenBefore(i, p); prev >= 0 {
			return fmt.Errorf("appmodel: %s memory port %d collides with %s at %v", a.Name, i, a.owner(prev), p)
		}
	}
	for i, c := range a.Cores {
		if c.Name == "" {
			return fmt.Errorf("appmodel: %s has an unnamed core", a.Name)
		}
		if len(c.Streams) == 0 {
			return fmt.Errorf("appmodel: %s core %s has no streams", a.Name, c.Name)
		}
		if c.Pos.X < 0 || c.Pos.X >= a.Width || c.Pos.Y < 0 || c.Pos.Y >= a.Height {
			return fmt.Errorf("appmodel: %s core %s at %v outside %dx%d", a.Name, c.Name, c.Pos, a.Width, a.Height)
		}
		if prev := a.takenBefore(len(a.MemPorts)+i, c.Pos); prev >= 0 {
			return fmt.Errorf("appmodel: %s cores %s and %s share %v", a.Name, a.owner(prev), c.Name, c.Pos)
		}
		for _, s := range c.Streams {
			if err := s.Validate(); err != nil {
				return fmt.Errorf("appmodel: %s core %s: %w", a.Name, c.Name, err)
			}
		}
	}
	return nil
}

// takenBefore returns the owner below index k that holds pos, or -1;
// owner k is memory port k, or core k-len(MemPorts). The scan allocates
// nothing and is bounded by ports and cores, never by the mesh, whose
// dimensions a spec may set to anything: (ports + cores)² compares, small
// beside a run, which ticks every core every cycle.
func (a *App) takenBefore(k int, pos noc.Coord) int {
	for j := range k {
		if a.pos(j) == pos {
			return j
		}
	}
	return -1
}

// pos returns owner k's position.
func (a *App) pos(k int) noc.Coord {
	if k < len(a.MemPorts) {
		return a.MemPorts[k]
	}
	return a.Cores[k-len(a.MemPorts)].Pos
}

// owner names owner k: only an error message pays for the label.
func (a *App) owner(k int) string {
	if k < len(a.MemPorts) {
		return fmt.Sprintf("memory port %d", k)
	}
	return a.Cores[k-len(a.MemPorts)].Name
}

// TotalLoad sums the open-loop offered load fractions (closed-loop demand
// traffic adds on top of this).
func (a *App) TotalLoad() float64 {
	var sum float64
	for _, c := range a.Cores {
		for _, s := range c.Streams {
			if !s.ClosedLoop {
				sum += s.LoadFrac
			}
		}
	}
	return sum
}

// WithLoad returns a clone of a whose open-loop streams offer f times
// their load, each capped at 1 (the whole data bus). Closed-loop
// streams, which are paced by their completions and have no load
// fraction, are left alone. An f that makes a load NaN or not positive
// leaves a model Validate refuses.
func WithLoad(a App, f float64) App {
	c := a.clone()
	for i := range c.Cores {
		for j := range c.Cores[i].Streams {
			if s := &c.Cores[i].Streams[j]; !s.ClosedLoop {
				s.LoadFrac = min(s.LoadFrac*f, 1)
			}
		}
	}
	return c
}

// rowRegion hands out disjoint 256-row regions so each stream walks its
// own buffers (cross-stream conflicts then come from bank sharing, as in
// a real frame-buffer layout).
func rowRegion(i int) (base, size int) { return (i * 256) % 4096, 256 }

// The four archetypes below are the core vocabulary of every platform in
// the repository: the builtin models list them, and the scenario
// generator draws their parameters. region picks the core's row region
// and rotates its bank walk.

// CPU builds the microprocessor core: a closed-loop demand stream (the
// paper's priority candidate) plus an open-loop prefetcher.
func CPU(name string, pos noc.Coord, region int, think int64, prefetchLoad float64) Core {
	base, size := rowRegion(region)
	return Core{
		Name: name, Pos: pos,
		Streams: []traffic.Stream{
			{
				Name: name + ".demand", Class: noc.ClassDemand,
				ReadFrac: 0.8, Beats: []int{8}, ClosedLoop: true, ThinkTime: think,
				MaxOutstanding: 4, // several misses in flight (Fig. 1 bursts)
				Pattern:        traffic.Random, RowBase: base, RowRange: size, BankOffset: region,
			},
			{
				Name: name + ".prefetch", Class: noc.ClassPrefetch,
				ReadFrac: 1.0, Beats: []int{8, 16}, LoadFrac: prefetchLoad,
				Pattern: traffic.Streaming, RowBase: base, RowRange: size, BankOffset: region + 1,
			},
		},
	}
}

// Codec builds a video decoder/encoder: short scattered motion
// compensation reads plus streaming frame writeback.
func Codec(name string, pos noc.Coord, region int, mcLoad, wbLoad float64) Core {
	base, size := rowRegion(region)
	return Core{
		Name: name, Pos: pos,
		Streams: []traffic.Stream{
			{
				// H.264 motion compensation: short scattered reads, most
				// below the BL8 access granularity (the paper's Fig. 2
				// mismatch traffic), batched with occasional
				// macroblock-row fetches.
				Name: name + ".mc", Class: noc.ClassMedia,
				ReadFrac: 1.0, Beats: []int{2, 4, 4, 8, 12}, LoadFrac: mcLoad,
				Pattern: traffic.Random, RowBase: base, RowRange: size, BankOffset: region,
			},
			{
				Name: name + ".wb", Class: noc.ClassMedia,
				ReadFrac: 0.0, Beats: []int{12, 20}, LoadFrac: wbLoad,
				Pattern: traffic.Streaming, RowBase: base + 128, RowRange: size / 2, BankOffset: region + 2,
			},
		},
	}
}

// Streamer builds a long-packet streaming core (video enhancer, format
// converter, scaler, disc I/O): the paper's 64-BL packets.
func Streamer(name string, pos noc.Coord, region int, beats []int, load, readFrac float64) Core {
	base, size := rowRegion(region)
	return Core{
		Name: name, Pos: pos,
		Streams: []traffic.Stream{
			{
				Name: name + ".stream", Class: noc.ClassMedia,
				ReadFrac: readFrac, Beats: beats, LoadFrac: load,
				Pattern: traffic.Streaming, RowBase: base, RowRange: size, BankOffset: region,
			},
		},
	}
}

// Background builds a low-rate core (audio DSP, OSD, peripherals).
func Background(name string, pos noc.Coord, region int, beats []int, load, readFrac float64, pat traffic.Pattern) Core {
	base, size := rowRegion(region)
	return Core{
		Name: name, Pos: pos,
		Streams: []traffic.Stream{
			{
				Name: name + ".bg", Class: noc.ClassPeripheral,
				ReadFrac: readFrac, Beats: beats, LoadFrac: load,
				Pattern: pat, RowBase: base, RowRange: size, BankOffset: region,
			},
		},
	}
}

// BluRay returns the Blu-ray player model: a 3x3 mesh, 8 cores and the
// memory in the upper-left corner (the paper's 9 counts the memory tile).
func BluRay() App {
	a := App{
		Name: "bluray", Mesh: Mesh{Width: 3, Height: 3}, MemPorts: []noc.Coord{{X: 0, Y: 0}},
		Clocks: Clocks{DDR1: 133, DDR2: 266, DDR3: 533},
		Cores: []Core{
			// Bandwidth-hungry cores adjacent to the memory (A3MAP-style).
			Streamer("enhancer", noc.Coord{X: 1, Y: 0}, 1, []int{96, 128}, 0.30, 0.5),
			Streamer("formatconv", noc.Coord{X: 0, Y: 1}, 2, []int{64, 96}, 0.20, 0.5),
			Codec("h264", noc.Coord{X: 1, Y: 1}, 3, 0.10, 0.06),
			CPU("cpu", noc.Coord{X: 2, Y: 0}, 4, 40, 0.04),
			Streamer("discio", noc.Coord{X: 0, Y: 2}, 5, []int{64}, 0.10, 0.3),
			Background("gfx", noc.Coord{X: 2, Y: 1}, 6, []int{36}, 0.08, 0.6, traffic.Streaming),
			Background("audio", noc.Coord{X: 1, Y: 2}, 7, []int{4, 12}, 0.03, 0.6, traffic.Streaming),
			Background("periph", noc.Coord{X: 2, Y: 2}, 8, []int{2, 4}, 0.03, 0.5, traffic.Random),
		},
	}
	return a
}

// SingleDTV returns the single digital-television model: a 3x3 mesh and
// 8 cores (the paper's 9 counts the memory tile).
func SingleDTV() App {
	return App{
		Name: "sdtv", Mesh: Mesh{Width: 3, Height: 3}, MemPorts: []noc.Coord{{X: 0, Y: 0}},
		Clocks: Clocks{DDR1: 166, DDR2: 333, DDR3: 667},
		Cores: []Core{
			Streamer("enhancer", noc.Coord{X: 1, Y: 0}, 1, []int{128}, 0.28, 0.5),
			Streamer("scaler", noc.Coord{X: 0, Y: 1}, 2, []int{64}, 0.16, 0.5),
			Codec("vdec", noc.Coord{X: 1, Y: 1}, 3, 0.10, 0.06),
			CPU("cpu", noc.Coord{X: 2, Y: 0}, 4, 40, 0.04),
			Streamer("demux", noc.Coord{X: 0, Y: 2}, 5, []int{20, 36}, 0.06, 0.4),
			Background("osd", noc.Coord{X: 2, Y: 1}, 6, []int{36}, 0.06, 0.6, traffic.Streaming),
			Background("audio", noc.Coord{X: 1, Y: 2}, 7, []int{4, 12}, 0.03, 0.6, traffic.Streaming),
			Background("periph", noc.Coord{X: 2, Y: 2}, 8, []int{2, 4}, 0.03, 0.5, traffic.Random),
		},
	}
}

// DualDTV returns the dual digital-television model: a 4x4 mesh and 15
// cores (the paper's 16 counts the memory tile), two full video
// pipelines plus shared infrastructure.
func DualDTV() App {
	return App{
		Name: "ddtv", Mesh: Mesh{Width: 4, Height: 4}, MemPorts: []noc.Coord{{X: 0, Y: 0}},
		Clocks: Clocks{DDR1: 200, DDR2: 400, DDR3: 800},
		Cores: []Core{
			Streamer("enhancer0", noc.Coord{X: 1, Y: 0}, 1, []int{128}, 0.20, 0.5),
			Streamer("enhancer1", noc.Coord{X: 0, Y: 1}, 2, []int{128}, 0.20, 0.5),
			Codec("vdec0", noc.Coord{X: 1, Y: 1}, 3, 0.08, 0.05),
			Codec("vdec1", noc.Coord{X: 2, Y: 0}, 4, 0.08, 0.05),
			Streamer("scaler0", noc.Coord{X: 0, Y: 2}, 5, []int{64}, 0.12, 0.5),
			Streamer("scaler1", noc.Coord{X: 2, Y: 1}, 6, []int{64}, 0.12, 0.5),
			CPU("cpu", noc.Coord{X: 3, Y: 0}, 7, 40, 0.04),
			Streamer("demux0", noc.Coord{X: 1, Y: 2}, 8, []int{20, 36}, 0.05, 0.4),
			Streamer("demux1", noc.Coord{X: 3, Y: 1}, 9, []int{20, 36}, 0.05, 0.4),
			Background("gfx", noc.Coord{X: 2, Y: 2}, 10, []int{36}, 0.06, 0.6, traffic.Streaming),
			Background("audio0", noc.Coord{X: 0, Y: 3}, 11, []int{4, 12}, 0.02, 0.6, traffic.Streaming),
			Background("audio1", noc.Coord{X: 1, Y: 3}, 12, []int{4, 12}, 0.02, 0.6, traffic.Streaming),
			Background("netio", noc.Coord{X: 3, Y: 2}, 13, []int{64}, 0.05, 0.4, traffic.Streaming),
			Background("periph0", noc.Coord{X: 2, Y: 3}, 14, []int{2, 4}, 0.02, 0.5, traffic.Random),
			Background("periph1", noc.Coord{X: 3, Y: 3}, 15, []int{2, 4}, 0.02, 0.5, traffic.Random),
		},
	}
}

// BluRay2 returns the scaled two-channel Blu-ray model ("bluray x2"):
// two full player pipelines on a 4x4 mesh, each placed around its own
// SDRAM channel port in an opposite corner. Every pipeline offers
// roughly one channel's worth of bandwidth, so the model saturates both
// channels — the regime the multi-channel subsystem exists for. With
// Channels=1 it degenerates to a (heavily oversubscribed) single-SDRAM
// system behind the canonical corner port.
func BluRay2() App {
	return App{
		Name: "bluray2", Mesh: Mesh{Width: 4, Height: 4},
		MemPorts: []noc.Coord{{X: 0, Y: 0}, {X: 3, Y: 3}},
		Clocks:   Clocks{DDR1: 133, DDR2: 266, DDR3: 533},
		Cores: []Core{
			// Pipeline 0 around the (0,0) port.
			Streamer("enhancer0", noc.Coord{X: 1, Y: 0}, 1, []int{96, 128}, 0.30, 0.5),
			Streamer("formatconv0", noc.Coord{X: 0, Y: 1}, 2, []int{64, 96}, 0.20, 0.5),
			Codec("codec0", noc.Coord{X: 1, Y: 1}, 3, 0.10, 0.06),
			CPU("cpu0", noc.Coord{X: 2, Y: 0}, 4, 40, 0.04),
			Streamer("discio0", noc.Coord{X: 0, Y: 2}, 5, []int{64}, 0.10, 0.3),
			Background("gfx0", noc.Coord{X: 2, Y: 1}, 6, []int{36}, 0.08, 0.6, traffic.Streaming),
			Background("audio0", noc.Coord{X: 0, Y: 3}, 7, []int{4, 12}, 0.03, 0.6, traffic.Streaming),
			// Pipeline 1 mirrored around the (3,3) port.
			Streamer("enhancer1", noc.Coord{X: 2, Y: 3}, 8, []int{96, 128}, 0.30, 0.5),
			Streamer("formatconv1", noc.Coord{X: 3, Y: 2}, 9, []int{64, 96}, 0.20, 0.5),
			Codec("codec1", noc.Coord{X: 2, Y: 2}, 10, 0.10, 0.06),
			CPU("cpu1", noc.Coord{X: 1, Y: 3}, 11, 40, 0.04),
			Streamer("discio1", noc.Coord{X: 3, Y: 1}, 12, []int{64}, 0.10, 0.3),
			Background("gfx1", noc.Coord{X: 1, Y: 2}, 13, []int{36}, 0.08, 0.6, traffic.Streaming),
			Background("audio1", noc.Coord{X: 3, Y: 0}, 14, []int{4, 12}, 0.03, 0.6, traffic.Streaming),
		},
	}
}

// dtvQuadrant builds one DTV pipeline of the quad model: the SingleDTV
// core set placed in a 3x3 quadrant around its corner channel port,
// mirrored so the bandwidth-hungry cores stay adjacent to the port.
func dtvQuadrant(q int, corner noc.Coord, sx, sy int) []Core {
	at := func(dx, dy int) noc.Coord {
		return noc.Coord{X: corner.X + sx*dx, Y: corner.Y + sy*dy}
	}
	sfx := fmt.Sprintf("%d", q)
	r := q * 4
	return []Core{
		Streamer("enhancer"+sfx, at(1, 0), r+1, []int{128}, 0.28, 0.5),
		Streamer("scaler"+sfx, at(0, 1), r+2, []int{64}, 0.16, 0.5),
		Codec("vdec"+sfx, at(1, 1), r+3, 0.10, 0.06),
		CPU("cpu"+sfx, at(2, 0), r+4, 40, 0.04),
		Streamer("demux"+sfx, at(0, 2), r+5, []int{20, 36}, 0.06, 0.4),
		Background("osd"+sfx, at(2, 1), r+6, []int{36}, 0.06, 0.6, traffic.Streaming),
		Background("audio"+sfx, at(1, 2), r+7, []int{4, 12}, 0.03, 0.6, traffic.Streaming),
		Background("periph"+sfx, at(2, 2), r+8, []int{2, 4}, 0.03, 0.5, traffic.Random),
	}
}

// QuadDTV returns the scaled four-channel DTV model ("ddtv x4" in the
// roadmap's naming: the dual-DTV workload doubled again): four complete
// DTV pipelines on a 6x6 mesh, one SDRAM channel port in each corner,
// each quadrant's pipeline placed around its own port. The aggregate
// offered load is roughly four single-DTV systems, saturating all four
// channels.
func QuadDTV() App {
	a := App{
		Name: "ddtv4", Mesh: Mesh{Width: 6, Height: 6},
		MemPorts: []noc.Coord{
			{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 0, Y: 5}, {X: 5, Y: 5},
		},
		Clocks: Clocks{DDR1: 200, DDR2: 400, DDR3: 800},
	}
	a.Cores = append(a.Cores, dtvQuadrant(0, noc.Coord{X: 0, Y: 0}, 1, 1)...)
	a.Cores = append(a.Cores, dtvQuadrant(1, noc.Coord{X: 5, Y: 0}, -1, 1)...)
	a.Cores = append(a.Cores, dtvQuadrant(2, noc.Coord{X: 0, Y: 5}, 1, -1)...)
	a.Cores = append(a.Cores, dtvQuadrant(3, noc.Coord{X: 5, Y: 5}, -1, -1)...)
	return a
}

// LowUtil returns a deliberately under-loaded 3x3 model: the Blu-ray
// platform in a navigation/standby phase — only the microprocessor's
// demand misses (long think times), a trickle of prefetch, and sparse
// peripheral housekeeping. Most mesh cycles are quiescent, which is the
// regime the simulation kernel's activity-driven idle-skip targets; the
// equivalence tests and the low-utilization benchmarks run it. Not part
// of Apps(): the paper's tables evaluate the saturated models only.
func LowUtil() App {
	return App{
		Name: "lowutil", Mesh: Mesh{Width: 3, Height: 3}, MemPorts: []noc.Coord{{X: 0, Y: 0}},
		Clocks: Clocks{DDR1: 133, DDR2: 266, DDR3: 533},
		Cores: []Core{
			CPU("cpu", noc.Coord{X: 1, Y: 0}, 1, 400, 0.005),
			Background("osd", noc.Coord{X: 0, Y: 1}, 2, []int{4, 12}, 0.004, 0.6, traffic.Streaming),
			Background("periph", noc.Coord{X: 1, Y: 1}, 3, []int{2, 4}, 0.003, 0.5, traffic.Random),
		},
	}
}

// builtins is every model ByName resolves, built once from its
// constructor: the paper's three (Apps), then the scaled variants
// (Scaled). Nothing hands an entry out; callers get a clone.
var builtins = [...]App{BluRay(), SingleDTV(), DualDTV(), BluRay2(), QuadDTV()}

// paperApps is how many of builtins are the paper's evaluation models.
const paperApps = 3

// Apps returns the three benchmark models of the paper's evaluation.
func Apps() []App { return clones(builtins[:paperApps]) }

// Scaled returns the multi-channel scaled variants: the models that
// exist to exercise 2-4 SDRAM channels beyond the paper's single-SDRAM
// systems.
func Scaled() []App { return clones(builtins[paperApps:]) }

// clones deep-copies a run of the table.
func clones(apps []App) []App {
	out := make([]App, len(apps))
	for i := range apps {
		out[i] = apps[i].clone()
	}
	return out
}

// Known reports whether ByName resolves name, building nothing.
func Known(name string) bool {
	for i := range builtins {
		if builtins[i].Name == name {
			return true
		}
	}
	return false
}

// ByName looks an application model up by its short name, covering both
// the paper's benchmarks and the scaled multi-channel variants. It
// returns a clone of the model built at init, so the caller owns every
// slice of it.
func ByName(name string) (App, error) {
	var names [len(builtins)]string
	for i := range builtins {
		if builtins[i].Name == name {
			return builtins[i].clone(), nil
		}
		names[i] = builtins[i].Name
	}
	last := len(names) - 1
	return App{}, fmt.Errorf("appmodel: unknown application %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last])
}

// clone deep-copies a in four allocations: the ports, the cores, one
// slab of streams and one of beats. Each core's streams and each
// stream's beats are carved with cap == len, so an append to them
// reallocates instead of writing into a neighbour. Strings are immutable
// and shared; nil and empty slices stay apart.
func (a *App) clone() App {
	c := *a
	c.MemPorts = slices.Clone(a.MemPorts)
	c.Cores = slices.Clone(a.Cores)
	nStreams, nBeats := 0, 0
	for _, core := range a.Cores {
		nStreams += len(core.Streams)
		for _, s := range core.Streams {
			nBeats += len(s.Beats)
		}
	}
	streams, beats := make([]traffic.Stream, nStreams), make([]int, nBeats)
	for i := range c.Cores {
		src := c.Cores[i].Streams
		if src == nil {
			continue
		}
		dst := sim.Carve(&streams, len(src))
		copy(dst, src)
		for j := range dst {
			if b := dst[j].Beats; b != nil {
				dst[j].Beats = sim.Carve(&beats, len(b))
				copy(dst[j].Beats, b)
			}
		}
		c.Cores[i].Streams = dst
	}
	return c
}
