package noc

// Routing selects the mesh routing algorithm. The paper's implementation
// uses deterministic XY routing but states the GSS router works with any
// deadlock- and livelock-free routing logic, deterministic or adaptive;
// both are provided.
type Routing int

const (
	// RoutingXY is dimension-ordered routing: deterministic and minimal.
	RoutingXY Routing = iota
	// RoutingWestFirst is the west-first turn model: a packet makes all
	// of its westward moves first; afterwards it may choose adaptively
	// among the remaining productive directions, picking the least
	// congested output. Minimal and deadlock-free (the two turns into
	// west are forbidden), and livelock-free (every permitted move
	// decreases the distance to the destination).
	RoutingWestFirst
)

// String names the routing algorithm.
func (r Routing) String() string {
	if r == RoutingWestFirst {
		return "west-first"
	}
	return "xy"
}

// PermittedOutputs returns the set of productive output ports a packet at
// cur may take toward dst under the routing algorithm. XY returns exactly
// one port; west-first may return up to three.
func PermittedOutputs(r Routing, cur, dst Coord) []int {
	if cur == dst {
		return []int{PortLocal}
	}
	if r == RoutingXY {
		return []int{XYRoute(cur, dst)}
	}
	// West-first: all west hops happen before anything else.
	if dst.X < cur.X {
		return []int{PortWest}
	}
	var out []int
	if dst.X > cur.X {
		out = append(out, PortEast)
	}
	if dst.Y > cur.Y {
		out = append(out, PortSouth)
	}
	if dst.Y < cur.Y {
		out = append(out, PortNorth)
	}
	return out
}

// SetRouting installs the routing algorithm on every router of the mesh.
// Call before injecting traffic.
func (m *Mesh) SetRouting(r Routing) {
	for _, rt := range m.Routers {
		rt.routing = r
	}
}

// routeFor picks the output port a packet takes at this router, once, as
// its head flit arrives; the choice is pinned in the packet's
// PacketProgress so the packet requests a single channel for its whole
// residency. Deterministic routing needs no state; adaptive routing
// evaluates the congestion of the permitted outputs at arrival time —
// the paper's "packets given multiple routing paths by an adaptive
// routing logic can be scheduled to other flow controllers which are not
// busy".
func (r *Router) routeFor(p *Packet) int {
	if r.routing == RoutingXY {
		// Fast path: XY needs no candidate set and no allocation.
		return XYRoute(r.Pos, p.Dst)
	}
	opts := PermittedOutputs(r.routing, r.Pos, p.Dst)
	best := opts[0]
	if len(opts) > 1 {
		bestScore := -1 << 30
		for _, o := range opts {
			s := r.outputScore(o, p)
			if s > bestScore {
				best, bestScore = o, s
			}
		}
	}
	return best
}

// outputScore ranks an output for adaptive selection: free channels and
// available credits score high; a channel mid-transfer scores low.
func (r *Router) outputScore(out int, p *Packet) int {
	o := &r.Out[out]
	if o.link == nil {
		return -1 << 29
	}
	vc := VCOf(p.Priority, r.vcs)
	s := o.credits[vc]
	if a := &o.active[vc]; a.pp == nil {
		s += 1000
	} else {
		s -= a.pp.Pkt.Flits - a.pp.Sent // penalise long residual transfers
	}
	return s
}
