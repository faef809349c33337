package noc

import (
	"fmt"
	"math/bits"
	"strconv"

	"aanoc/internal/sim"
)

// Coord is a router position on the mesh. X grows eastward, Y southward.
type Coord struct {
	X int `json:"x"`
	Y int `json:"y"`
}

// String renders the coordinate as (x,y).
func (c Coord) String() string { return string(c.Append(nil)) }

// Append appends the coordinate's String form to b.
func (c Coord) Append(b []byte) []byte {
	b = strconv.AppendInt(append(b, '('), int64(c.X), 10)
	return append(strconv.AppendInt(append(b, ','), int64(c.Y), 10), ')')
}

// Port directions of a 5-port 2-D mesh router. Local connects to the
// node's network interface.
const (
	PortLocal = iota
	PortNorth
	PortEast
	PortSouth
	PortWest
	NumPorts
)

// PortName returns the conventional name of a port index.
func PortName(p int) string {
	switch p {
	case PortLocal:
		return "local"
	case PortNorth:
		return "north"
	case PortEast:
		return "east"
	case PortSouth:
		return "south"
	case PortWest:
		return "west"
	default:
		return fmt.Sprintf("port%d", p)
	}
}

// XYRoute returns the output port a packet at cur takes toward dst under
// dimension-ordered XY routing (X first, then Y): deterministic, minimal,
// deadlock- and livelock-free, as the paper's implementation uses.
func XYRoute(cur, dst Coord) int {
	switch {
	case dst.X > cur.X:
		return PortEast
	case dst.X < cur.X:
		return PortWest
	case dst.Y > cur.Y:
		return PortSouth
	case dst.Y < cur.Y:
		return PortNorth
	default:
		return PortLocal
	}
}

// HopDistance returns the XY hop count between two nodes.
func HopDistance(a, b Coord) int {
	dx, dy := a.X-b.X, a.Y-b.Y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// bitset is a fixed-size set of small integers, one bit each. The mesh
// walks its words directly (deliver, arbitrate) to visit members in
// ascending order.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]>>(i&63)&1 == 1 }

func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Mesh is one physical network: Width x Height routers plus the links
// between them. Request and response traffic use separate Mesh instances.
type Mesh struct {
	Width, Height int
	Routers       []*Router
	vcs           int

	// links is the link arena, in construction order: the inter-router
	// links, then one per attached injector or sink. Its capacity is fixed
	// at construction (newLink), so &links[i] is stable and i is the
	// link's bit in linkBusy. linkCredits backs every link's per-VC
	// pending-credit counters.
	links       []Link
	linkCredits []int32

	// The two active sets, one bit per link and per router, index order =
	// construction order: the mesh's only activity state. A link's bit is
	// set while it holds a flit or a pending credit: launch and
	// returnCredit set it, deliver clears it. A router's bit is set by a
	// delivery that lands a flit in one of its input buffers or credits
	// one of its outputs, and cleared by arbitrate once the router can
	// make no progress until the next such delivery (see arbitrate). While
	// both are empty Cycle is a no-op and the simulation kernel skips it.
	// Flits delivered into a sink's credit buffers are in neither — the
	// sink's consumer tracks them. The checked-mode audit recomputes both
	// from the live structures every cycle.
	linkBusy    bitset
	routerAwake bitset

	// Work counters for the proportionality tests: links deliver visited
	// and Router.step entries.
	linkVisits, routerSteps int64

	// progress is the mesh's PacketProgress free-list: entries are leased
	// as head flits arrive and returned (zeroed, so a stale *Packet cannot
	// leak through the pool) as tail flits leave, so the steady state
	// recycles a small working set instead of allocating one per
	// packet-hop. Per-mesh (not global) so concurrent sweeps stay
	// race-free.
	progress sim.Pool[PacketProgress]

	// OnWake, when set, is invoked as the link set leaves empty: a launch
	// or a credit return put the first thing on a link. deliver empties
	// the set, so it fires at most once per cycle. The system uses it to
	// schedule the mesh's kernel component for the delivery.
	OnWake func()
}

// NewMesh builds a single-virtual-channel (classic wormhole) mesh with
// every input buffer holding bufFlits flits.
func NewMesh(width, height, bufFlits int) (*Mesh, error) {
	return NewMeshVC(width, height, bufFlits, 1)
}

// NewMeshVC builds a mesh whose input ports carry vcs virtual channels of
// bufFlits flits each: vcs 1 is the paper's wormhole organisation; with
// vcs 2, priority packets travel on VC 1 and overtake best-effort
// wormhole transfers at flit granularity — the buffer organisation the
// paper names as the alternative to packet splitting.
func NewMeshVC(width, height, bufFlits, vcs int) (*Mesh, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("noc: invalid mesh %dx%d", width, height)
	}
	if bufFlits < 1 {
		return nil, fmt.Errorf("noc: input buffers need at least 1 flit, got %d", bufFlits)
	}
	if vcs < 1 || vcs > 2 {
		return nil, fmt.Errorf("noc: virtual channels must be 1..2, got %d", vcs)
	}
	// Every link the mesh can ever hold: both directions between
	// neighbours, plus an injector and a sink per node.
	nLinks := 2*((width-1)*height+width*(height-1)) + 2*width*height
	m := &Mesh{
		Width: width, Height: height, vcs: vcs,
		links:       make([]Link, 0, nLinks),
		linkCredits: make([]int32, nLinks*vcs),
		linkBusy:    newBitset(nLinks),
		routerAwake: newBitset(width * height),
	}
	// One contiguous arena for all routers: the per-cycle arbitrate walk
	// touches sequential memory. The *Router view stays because pointers
	// into the arena are stable (the backing slice is never resized).
	arena := make([]Router, width*height)
	m.Routers = make([]*Router, width*height)
	// Likewise one backing slice each for every port's per-VC credits,
	// transfer slots, input buffers and packet FIFOs; a router carves its
	// share.
	per := NumPorts * vcs
	credits := make([]int, len(arena)*per)
	active := make([]activeXfer, len(arena)*per)
	bufs := make([]InputBuffer, len(arena)*per)
	fifos := make([]*PacketProgress, len(arena)*per*bufFlits)
	for i := range arena {
		arena[i].init(Coord{i % width, i / width}, vcs, bufFlits, &credits, &active, &bufs, &fifos)
		m.Routers[i] = &arena[i]
	}
	// Wire neighbouring routers with links in both directions.
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			c := Coord{x, y}
			r := m.RouterAt(c)
			if x+1 < width {
				e := m.RouterAt(Coord{x + 1, y})
				m.connect(r, PortEast, e, PortWest)
				m.connect(e, PortWest, r, PortEast)
			}
			if y+1 < height {
				s := m.RouterAt(Coord{x, y + 1})
				m.connect(r, PortSouth, s, PortNorth)
				m.connect(s, PortNorth, r, PortSouth)
			}
		}
	}
	return m, nil
}

func (m *Mesh) index(c Coord) int { return c.Y*m.Width + c.X }

// RouterAt returns the router at a coordinate.
func (m *Mesh) RouterAt(c Coord) *Router {
	if c.X < 0 || c.X >= m.Width || c.Y < 0 || c.Y >= m.Height {
		panic(fmt.Sprintf("noc: coordinate %v outside %dx%d mesh", c, m.Width, m.Height))
	}
	return m.Routers[m.index(c)]
}

// connect wires src's output port to dst's input port with a 1-cycle link.
func (m *Mesh) connect(src *Router, srcPort int, dst *Router, dstPort int) {
	in, out := &dst.In[dstPort], &src.Out[srcPort]
	out.link = m.newLink(in, out, m.index(dst.Pos), m.index(src.Pos))
	for vc := range in.bufs {
		out.credits[vc] = in.bufs[vc].capacity
	}
}

// AttachInjector connects an injection source (a network interface) to the
// local input port of the router at c and returns the injection handle.
func (m *Mesh) AttachInjector(c Coord) *Injector { return &m.AttachInjectors(c)[0] }

// AttachInjectors is AttachInjector at each coordinate, in order. The
// injectors come from one slab and their per-VC state from one backing
// slice per kind, so attaching a population costs a fixed number of
// allocations.
func (m *Mesh) AttachInjectors(at ...Coord) []Injector {
	injs := make([]Injector, len(at))
	ints := make([]int, 2*len(at)*m.vcs)
	queues := make([]packetFIFO, len(at)*m.vcs)
	for i, c := range at {
		inj := &injs[i]
		inj.credits, inj.sent, inj.queues = sim.Carve(&ints, m.vcs), sim.Carve(&ints, m.vcs), sim.Carve(&queues, m.vcs)
		in := &m.RouterAt(c).In[PortLocal]
		for vc := range in.bufs {
			inj.credits[vc] = in.bufs[vc].capacity
		}
		inj.link = m.newLink(in, inj, m.index(c), -1)
	}
	return injs
}

// AttachSink connects the local output port of the router at c to a
// consumer. queueFlits sizes the credit-managed flit buffer of each VC;
// maxReady bounds how many reassembled packets may await the consumer
// before backpressure propagates into the mesh.
func (m *Mesh) AttachSink(c Coord, queueFlits, maxReady int) *Sink {
	return &m.AttachSinks(queueFlits, maxReady, c)[0]
}

// AttachSinks is AttachSink at each coordinate, in order, from one slab
// like AttachInjectors; each sink's ready list is carved at its bound.
func (m *Mesh) AttachSinks(queueFlits, maxReady int, at ...Coord) []Sink {
	sinks := make([]Sink, len(at))
	bufs := make([]InputBuffer, len(at)*m.vcs)
	fifos := make([]*PacketProgress, len(at)*m.vcs*queueFlits)
	ready := make([]*Packet, len(at)*maxReady)
	for i, c := range at {
		s := &sinks[i]
		s.maxReady, s.ready = maxReady, sim.Carve(&ready, maxReady)[:0]
		s.port.init(sim.Carve(&bufs, m.vcs), queueFlits, sim.Carve(&fifos, m.vcs*queueFlits))
		out := &m.RouterAt(c).Out[PortLocal]
		l := m.newLink(&s.port, out, -1, m.index(c))
		l.sink = s
		out.link = l
		for vc := range out.credits {
			out.credits[vc] = queueFlits
		}
	}
	return sinks
}

// deliver is the first half of a mesh cycle: every link holding a flit
// or a pending credit moves them to their destinations, and nothing else
// is touched. The busy set is walked in ascending bit order, which is
// construction order — same-cycle packet arrivals reach a shared
// allocator in this order. Each word is read once: nothing launches
// during deliver, and a delivered link holds nothing, so its bit clears.
func (m *Mesh) deliver(now int64) {
	for w, word := range m.linkBusy {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			m.linkVisits++
			m.links[w<<6|b].deliver(now)
			m.linkBusy.clear(w<<6 | b)
		}
	}
}

// arbitrate is the second half: every awake router allocates free
// output channels and forwards at most one flit per output, in ascending
// index order. A router goes back to sleep when its step changed
// nothing and asked nothing of a time-dependent allocator
// (Router.step; a router holding no packet is the trivial case): what is
// left is then waiting on a flit or a credit, and only a delivery —
// which sets the bit again — brings either.
func (m *Mesh) arbitrate(now int64) {
	for w, word := range m.routerAwake {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			m.routerSteps++
			if !m.Routers[w<<6|b].step(now) {
				m.routerAwake.clear(w<<6 | b)
			}
		}
	}
}

// WorkCounts returns how much the mesh has walked so far: links deliver
// visited and Router.step entries. Pure functions of the traffic, so
// tests pin them. No product path reads them yet: they are kept as the
// count gate of system's proportionality test, across packages.
func (m *Mesh) WorkCounts() (linkVisits, routerSteps int64) {
	return m.linkVisits, m.routerSteps
}

// Busy reports whether the next Cycle has work: a link holds a flit or a
// credit, or a router may still act without a further delivery. While
// it is false Cycle is a no-op and stays one until a launch or a credit
// return fires OnWake.
func (m *Mesh) Busy() bool { return m.linkBusy.any() || m.routerAwake.any() }

// Cycle advances the mesh one cycle: deliver, then arbitrate. The full
// system ticks it as one kernel component per mesh; unit tests and
// micro-benchmarks drive an isolated mesh the same way.
func (m *Mesh) Cycle(now int64) {
	m.deliver(now)
	m.arbitrate(now)
}

// markBusy puts link i in the busy set, firing OnWake if the set was
// empty.
func (m *Mesh) markBusy(i int) {
	if m.OnWake != nil && !m.linkBusy.any() {
		m.OnWake()
	}
	m.linkBusy.set(i)
}

// Quiescent reports whether no packet occupies any buffer or link in the
// mesh. No product path asks: it is kept as the drain oracle of the noc
// and system tests, which walks the buffers themselves where the audit
// reads the active sets.
func (m *Mesh) Quiescent() bool {
	for _, r := range m.Routers {
		for p := range r.In {
			if !r.In[p].empty() {
				return false
			}
		}
	}
	for i := range m.links {
		if m.links[i].busy() {
			return false
		}
	}
	return true
}
