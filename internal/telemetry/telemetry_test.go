package telemetry

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

func lineNet(t *testing.T) (*netsim.Network, *topology.Graph) {
	t.Helper()
	g := topology.Line(4, 1)
	routes, err := routing.ShortestPath{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return net, g
}

// collectEvery samples the network every collector period up to the
// horizon, the way core.WithTelemetry's Tick hook does inside a run.
func collectEvery(col *Collector, net *netsim.Network, until netsim.Time) {
	for at := col.Period; at <= until; at += col.Period {
		net.Sim.At(at, func() { col.Collect(net) })
	}
}

func TestCollectorSamplesPeriodically(t *testing.T) {
	net, g := lineNet(t)
	col := NewCollector(g, netsim.Millisecond, 0.5)
	hosts := g.Hosts()
	net.Host(hosts[0]).Send(hosts[3], 1, 8<<20) // ~6.7 ms at 10G
	collectEvery(col, net, 10*netsim.Millisecond)
	net.Sim.Run(11 * netsim.Millisecond)
	if col.Epochs() < 8 {
		t.Fatalf("epochs = %d, want ~10", col.Epochs())
	}
	series := col.Series()
	if len(series) == 0 {
		t.Fatal("no link series")
	}
	// The s0-s1 link must be hot; an unused link (s2-s3 is used too on
	// the path... host3's own link) has traffic; an off-path host link
	// (host at s1) must be idle.
	hot := col.Hottest(1)[0]
	if hot.Peak == 0 || hot.EWMA == 0 {
		t.Errorf("hottest link has no load: %+v", hot)
	}
	idleFound := false
	for _, s := range series {
		if s.Peak == 0 {
			idleFound = true
		}
	}
	if !idleFound {
		t.Error("no idle link found; expected off-path host links idle")
	}
}

func TestCollectorRates(t *testing.T) {
	net, g := lineNet(t)
	col := NewCollector(g, netsim.Millisecond, 1.0) // no smoothing
	hosts := g.Hosts()
	net.Host(hosts[0]).Send(hosts[3], 1, 4<<20)
	collectEvery(col, net, 3*netsim.Millisecond)
	net.Sim.Run(3500 * netsim.Microsecond)
	rates := col.Rates()
	peak := 0.0
	for _, r := range rates {
		if r > peak {
			peak = r
		}
	}
	// A saturated 10 Gbps link moves 1.25e9 bytes/s.
	if peak < 0.9e9 || peak > 1.4e9 {
		t.Errorf("peak rate = %.3g B/s, want ~1.25e9", peak)
	}
}

func TestCollectorFeedsUGAL(t *testing.T) {
	g := topology.Dragonfly(4, 9, 2, 1)
	routes, err := routing.DragonflyMinimal{}.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for i := 0; i < 4; i++ {
		net.Host(hosts[i]).Send(hosts[4+i], 1, 2<<20) // group 0 -> group 1
	}
	col := NewCollector(g, netsim.Millisecond, 0.5)
	collectEvery(col, net, 5*netsim.Millisecond)
	net.Sim.Run(0)
	ugal := routing.DragonflyUGAL{Loads: col.Rates(), Bias: 1}
	r, err := ugal.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := routing.VerifyDeadlockFree(r); err != nil {
		t.Error(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	net, g := lineNet(t)
	col := NewCollector(g, netsim.Millisecond, 0.5)
	hosts := g.Hosts()
	net.Host(hosts[0]).Send(hosts[3], 1, 2<<20)
	collectEvery(col, net, 3*netsim.Millisecond)
	net.Sim.Run(0)
	var buf bytes.Buffer
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	links, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != len(col.Series()) {
		t.Errorf("round trip changed link count: %d vs %d", len(links), len(col.Series()))
	}
	for i, s := range col.Series() {
		if links[i].EdgeID != s.EdgeID || links[i].Peak != s.Peak || len(links[i].Bytes) != len(s.Bytes) {
			t.Errorf("link %d changed in round trip", i)
		}
	}
}

func TestCollectorDefaults(t *testing.T) {
	g := topology.Line(2, 1)
	c := NewCollector(g, 0, 0)
	if c.Period != netsim.Millisecond || c.Alpha != 0.3 {
		t.Errorf("defaults = %v/%v", c.Period, c.Alpha)
	}
	if _, err := ReadJSON(bytes.NewBufferString("not json")); err == nil {
		t.Error("garbage accepted")
	}
}
