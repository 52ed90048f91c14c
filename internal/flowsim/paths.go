package flowsim

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// pathInfo is one resolved host-to-host route through the fabric.
type pathInfo struct {
	// links are the directed links the flow occupies, source host NIC
	// through delivery: 2*edge+0 when traversed from Edge.A, 2*edge+1
	// from Edge.B. Both directions of a full-duplex cable carry
	// independent capacity, exactly as in the packet engine.
	links []int32
	// base is the zero-load one-way latency in picoseconds beyond
	// payload serialisation: host NIC latency at both ends, switch
	// pipeline latency and (cut-through) header re-serialisation per
	// hop, propagation per link.
	base float64
}

// walker resolves and caches host-to-host paths by walking the rules
// hop by hop through Routes.Lookup — the rules the packet engine's FIB
// is compiled from and differential-tested against, so flow-level and
// packet-level runs cannot disagree about which links a flow crosses.
// Path resolution is a one-time cost per (src, dst) pair, so no dense
// FIB (vertices² slots) is compiled for it at any fabric size.
type walker struct {
	g       *topology.Graph
	routes  *routing.Routes
	ports   map[int]map[int]int32 // switch → out port → edge id, built per visited switch
	cache   map[[2]int]*pathInfo
	hdrSer  float64 // header serialisation time in ps (cut-through per-hop cost)
	hostLat float64
	swLat   float64
	propLat float64
	cut     bool
}

func newWalker(g *topology.Graph, routes *routing.Routes, cfg *netsim.Config) *walker {
	return &walker{
		g:       g,
		routes:  routes,
		ports:   map[int]map[int]int32{},
		cache:   map[[2]int]*pathInfo{},
		hdrSer:  float64(cfg.HeaderBytes*8) / cfg.LinkBps * float64(netsim.Second),
		hostLat: float64(cfg.HostLatency),
		swLat:   float64(cfg.SwitchLatency),
		propLat: float64(cfg.PropDelay),
		cut:     cfg.CutThrough,
	}
}

// dirLink is the directed-link id for traversing edge eid out of vertex
// `from`.
func (w *walker) dirLink(eid int32, from int) int32 {
	if w.g.Edges[eid].A == from {
		return 2 * eid
	}
	return 2*eid + 1
}

// edgeAt finds the edge behind a switch's logical out port.
func (w *walker) edgeAt(sw, port int) int32 {
	m, ok := w.ports[sw]
	if !ok {
		m = make(map[int]int32)
		for _, eid := range w.g.IncidentEdges(sw) {
			m[w.g.Edges[eid].PortAt(sw)] = int32(eid)
		}
		w.ports[sw] = m
	}
	if eid, ok := m[port]; ok {
		return eid
	}
	return -1
}

// path resolves (and caches) the route from host src to host dst.
func (w *walker) path(src, dst int) (*pathInfo, error) {
	if p, ok := w.cache[[2]int{src, dst}]; ok {
		return p, nil
	}
	g := w.g
	cur := g.HostSwitch(src)
	if cur < 0 {
		return nil, fmt.Errorf("flowsim: host %d has no switch", src)
	}
	up := g.EdgeBetween(src, cur)
	if up < 0 {
		return nil, fmt.Errorf("flowsim: host %d detached from switch %d", src, cur)
	}
	links := []int32{w.dirLink(int32(up), src)}
	inPort := g.Edges[up].PortAt(cur)
	tag := 0
	nsw := 0
	for {
		if nsw > len(g.Vertices) {
			return nil, fmt.Errorf("flowsim: path %d->%d exceeds %d hops (routing loop?)", src, dst, nsw)
		}
		nsw++
		rule := w.routes.Lookup(cur, inPort, dst, tag)
		if rule == nil {
			return nil, fmt.Errorf("flowsim: no route on switch %d for dst %d tag %d", cur, dst, tag)
		}
		if rule.NewTag >= 0 {
			tag = rule.NewTag
		}
		out := rule.OutPort
		eid := w.edgeAt(cur, out)
		if eid < 0 {
			return nil, fmt.Errorf("flowsim: switch %d out port %d dangling", cur, out)
		}
		e := g.Edges[eid]
		nxt := e.Other(cur)
		links = append(links, w.dirLink(eid, cur))
		if nxt == dst {
			break
		}
		if g.Vertices[nxt].Kind != topology.Switch {
			return nil, fmt.Errorf("flowsim: path %d->%d delivered to wrong host %d", src, dst, nxt)
		}
		inPort = e.PortAt(nxt)
		cur = nxt
	}
	base := 2*w.hostLat + float64(nsw)*w.swLat + float64(len(links))*w.propLat
	if w.cut {
		// Cut-through forwards once the header has arrived: each switch
		// hop re-serialises only the header.
		base += float64(nsw) * w.hdrSer
	}
	p := &pathInfo{links: links, base: base}
	w.cache[[2]int{src, dst}] = p
	return p, nil
}
