package community

import (
	"testing"

	"repro/internal/webapp"
)

// TestLoopbackSeveredLikePipe: a crash severs loopbacks through the same
// connection tracking that severs Serve'd pipes. A root failover and an
// aggregator crash each kill the loopbacks into them, and a closed tier
// hands out dead ones, so a simulated client meets the dead wire exactly
// where a live one does.
func TestLoopbackSeveredLikePipe(t *testing.T) {
	app := webapp.MustBuild()
	g, err := NewRootGroup(ManagerConfig{Image: app.Image}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := NewEnvelope(MsgHello, Hello{NodeID: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(c Conn) error {
		if err := c.Send(hello); err != nil {
			return err
		}
		_, err := c.Recv()
		return err
	}

	direct := loopback(g.endpoint())
	if err := roundTrip(direct); err != nil {
		t.Fatal(err)
	}
	if err := g.FailLeader(); err != nil {
		t.Fatal(err)
	}
	if direct.Send(hello) == nil {
		t.Fatal("loopback into the root survived the leader's failover")
	}

	up := loopback(g.endpoint())
	agg, err := NewAggregator(AggregatorConfig{ID: "agg00", Image: app.Image, Upstream: up})
	if err != nil {
		t.Fatal(err)
	}
	member := loopback(agg.endpoint())
	if err := roundTrip(member); err != nil {
		t.Fatal(err)
	}
	_ = agg.Close()
	if member.Send(hello) == nil {
		t.Fatal("member loopback survived the aggregator's crash")
	}
	if loopback(agg.endpoint()).Send(hello) == nil {
		t.Fatal("a crashed aggregator accepted a new loopback")
	}

	_ = g.Close()
	if loopback(g.endpoint()).Send(hello) == nil {
		t.Fatal("a closed root group accepted a new loopback")
	}
}
