package chaos

import (
	"fmt"
	"sync"
	"time"

	"gridrep/internal/netem"
	"gridrep/internal/wire"
)

// Grid manages one Proxy per directed link of a TCP deployment. Every
// node keeps its real listen address; what changes is each node's view
// of its peers: BookFor(viewer) returns an address book whose entries
// point at link proxies dedicated to (viewer → peer), so each directed
// link can be severed, blackholed, delayed, or throttled independently
// at runtime — the socket-level analogue of the netem link controls the
// in-process fabric already has.
type Grid struct {
	mu     sync.Mutex
	real   map[wire.NodeID]string
	links  map[[2]wire.NodeID]*Proxy
	closed bool
}

// NewGrid wraps a real address book (node → actual listen address).
// Proxies are created lazily by BookFor.
func NewGrid(realBook map[wire.NodeID]string) *Grid {
	real := make(map[wire.NodeID]string, len(realBook))
	for id, addr := range realBook {
		real[id] = addr
	}
	return &Grid{
		real:  real,
		links: make(map[[2]wire.NodeID]*Proxy),
	}
}

// SetReal records (or updates) a node's real listen address.
func (g *Grid) SetReal(id wire.NodeID, addr string) {
	g.mu.Lock()
	g.real[id] = addr
	g.mu.Unlock()
}

// BookFor returns viewer's address book: its own entry is the real
// address (a node binds its own listener), every peer entry is the
// (viewer → peer) link proxy, created on first use.
func (g *Grid) BookFor(viewer wire.NodeID) (map[wire.NodeID]string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, fmt.Errorf("chaos: grid closed")
	}
	book := make(map[wire.NodeID]string, len(g.real))
	for id, addr := range g.real {
		if id == viewer {
			book[id] = addr
			continue
		}
		p, err := g.linkLocked(viewer, id)
		if err != nil {
			return nil, err
		}
		book[id] = p.Addr()
	}
	return book, nil
}

func (g *Grid) linkLocked(from, to wire.NodeID) (*Proxy, error) {
	key := [2]wire.NodeID{from, to}
	if p, ok := g.links[key]; ok {
		return p, nil
	}
	target, ok := g.real[to]
	if !ok {
		return nil, fmt.Errorf("chaos: no real address for node %v", to)
	}
	p, err := NewProxy("127.0.0.1:0", target)
	if err != nil {
		return nil, err
	}
	g.links[key] = p
	return p, nil
}

// Link returns the (from → to) proxy, if it exists yet.
func (g *Grid) Link(from, to wire.NodeID) (*Proxy, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.links[[2]wire.NodeID{from, to}]
	return p, ok
}

// Links lists every directed link that currently has a proxy.
func (g *Grid) Links() [][2]wire.NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([][2]wire.NodeID, 0, len(g.links))
	for key := range g.links {
		out = append(out, key)
	}
	return out
}

// Sever cuts the live connections of the (from → to) link.
func (g *Grid) Sever(from, to wire.NodeID) {
	if p, ok := g.Link(from, to); ok {
		p.Sever()
	}
}

// SetDelay adds one-way latency to the (from → to) link.
func (g *Grid) SetDelay(from, to wire.NodeID, d time.Duration) {
	if p, ok := g.Link(from, to); ok {
		p.SetDelay(d)
	}
}

// Restore clears blackhole/delay/throttle on the (from → to) link.
func (g *Grid) Restore(from, to wire.NodeID) {
	if p, ok := g.Link(from, to); ok {
		p.Restore()
	}
}

// SetDown takes the (from → to) link fully offline (dials refused) or
// brings it back on the same address.
func (g *Grid) SetDown(from, to wire.NodeID, on bool) error {
	if p, ok := g.Link(from, to); ok {
		return p.SetDown(on)
	}
	return nil
}

// Partition takes every link into and out of node n offline (on=true)
// or heals them in place (on=false): redials are refused, so peer
// supervisors back off and their bounded queues absorb — then shed —
// the traffic.
func (g *Grid) Partition(n wire.NodeID, on bool) error {
	g.mu.Lock()
	var ps []*Proxy
	for key, p := range g.links {
		if key[0] == n || key[1] == n {
			ps = append(ps, p)
		}
	}
	g.mu.Unlock()
	var firstErr error
	for _, p := range ps {
		if err := p.SetDown(on); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Isolate blackholes (on=true) or restores (on=false) every link into
// and out of node n — the "leader vanishes but its sockets stay open"
// scenario that only end-to-end heartbeats can detect.
func (g *Grid) Isolate(n wire.NodeID, on bool) {
	g.mu.Lock()
	var ps []*Proxy
	for key, p := range g.links {
		if key[0] == n || key[1] == n {
			ps = append(ps, p)
		}
	}
	g.mu.Unlock()
	for _, p := range ps {
		p.SetBlackhole(on)
	}
}

// ApplyProfile programs every directed replica link's one-way delay
// from a netem profile's latency model, so a real-TCP deployment runs
// on the same geography as the in-process fabric (the geo spreads
// wan3/wan5 in particular). Proxies are created eagerly for every
// directed pair; each gets the profile's mean one-way delay for its
// class pair — the proxy adds a constant delay, so the jitter and tail
// terms collapse to their expectation here. Pass the same seed the
// in-process run used for a like-for-like topology.
func (g *Grid) ApplyProfile(p netem.Profile, seed int64) error {
	m := p.NewModel(seed)
	g.mu.Lock()
	ids := make([]wire.NodeID, 0, len(g.real))
	for id := range g.real {
		ids = append(ids, id)
	}
	type hop struct {
		p *Proxy
		d time.Duration
	}
	var hops []hop
	for _, from := range ids {
		for _, to := range ids {
			if from == to {
				continue
			}
			pr, err := g.linkLocked(from, to)
			if err != nil {
				g.mu.Unlock()
				return err
			}
			hops = append(hops, hop{pr, m.MeanLatency(m.ClassOf(from), m.ClassOf(to))})
		}
	}
	g.mu.Unlock()
	for _, h := range hops {
		h.p.SetDelay(h.d)
	}
	return nil
}

// PartitionRegion takes every link crossing region r's boundary offline
// (on=true) or heals it in place (on=false). regionOf maps node →
// region (netem.Profile.RegionOf for the geo spreads). Intra-region
// links stay up: the partitioned region keeps talking to itself, it
// just cannot reach the rest of the world — the "continent drops off
// the backbone" scenario of the WAN chaos suite.
func (g *Grid) PartitionRegion(r int, regionOf func(wire.NodeID) int, on bool) error {
	g.mu.Lock()
	var ps []*Proxy
	for key, p := range g.links {
		in0, in1 := regionOf(key[0]) == r, regionOf(key[1]) == r
		if in0 != in1 {
			ps = append(ps, p)
		}
	}
	g.mu.Unlock()
	var firstErr error
	for _, p := range ps {
		if err := p.SetDown(on); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SeverNode cuts every live connection touching node n.
func (g *Grid) SeverNode(n wire.NodeID) {
	g.mu.Lock()
	var ps []*Proxy
	for key, p := range g.links {
		if key[0] == n || key[1] == n {
			ps = append(ps, p)
		}
	}
	g.mu.Unlock()
	for _, p := range ps {
		p.Sever()
	}
}

// Stats sums the counters of every link proxy.
func (g *Grid) Stats() ProxyStats {
	g.mu.Lock()
	ps := make([]*Proxy, 0, len(g.links))
	for _, p := range g.links {
		ps = append(ps, p)
	}
	g.mu.Unlock()
	var total ProxyStats
	for _, p := range ps {
		s := p.Stats()
		total.Accepted += s.Accepted
		total.Severs += s.Severs
		total.Bytes += s.Bytes
		total.Active += s.Active
	}
	return total
}

// Close shuts every link proxy down.
func (g *Grid) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	ps := make([]*Proxy, 0, len(g.links))
	for _, p := range g.links {
		ps = append(ps, p)
	}
	g.mu.Unlock()
	for _, p := range ps {
		p.Close()
	}
}
