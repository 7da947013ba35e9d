package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParsePeers(t *testing.T) {
	nodes, err := ParsePeers("a=h1:1, b=h2:2+h2:3 ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{{ID: "a", Addr: "h1:1"}, {ID: "b", Addr: "h2:2", WireAddr: "h2:3"}}
	if len(nodes) != len(want) {
		t.Fatalf("got %d nodes, want %d", len(nodes), len(want))
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("peer %d: got %+v want %+v", i, nodes[i], want[i])
		}
	}
	for _, bad := range []string{"nohost", "=addr", "id="} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q): want error", bad)
		}
	}
}

func TestRingDeterministicAndComplete(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"}, 0)
	b := NewRing([]string{"n3", "n1", "n2", "n2"}, 0) // order + dupes must not matter
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("drone-%04d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("ring not order-independent for %q: %s vs %s", key, a.Owner(key), b.Owner(key))
		}
	}
	if NewRing(nil, 0).Owner("x") != "" {
		t.Fatal("empty ring must own nothing")
	}
}

func TestRingBalanceAndStability(t *testing.T) {
	ring3 := NewRing([]string{"n1", "n2", "n3"}, 0)
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[ring3.Owner(fmt.Sprintf("drone-%x", i*7919))]++
	}
	for node, c := range counts {
		if c < keys/3/3 || c > keys {
			t.Errorf("node %s owns %d of %d keys — pathological imbalance", node, c, keys)
		}
	}
	// Consistent hashing's point: adding a node moves only ~1/N of keys.
	ring4 := NewRing([]string{"n1", "n2", "n3", "n4"}, 0)
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("drone-%x", i*7919)
		if ring3.Owner(key) != ring4.Owner(key) {
			moved++
		}
	}
	if moved > keys/2 {
		t.Errorf("adding one node moved %d/%d keys — not consistent hashing", moved, keys)
	}
	if moved == 0 {
		t.Error("adding a node moved no keys — new node owns nothing")
	}
}

func TestMapOwnerMatchesRing(t *testing.T) {
	m := NewMap(7, 0, []Node{{ID: "b", Addr: "hb"}, {ID: "a", Addr: "ha"}})
	if m.Nodes[0].ID != "a" {
		t.Fatal("map nodes not sorted")
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("drone-%d", i)
		n, ok := m.Owner(key)
		if !ok {
			t.Fatal("owner not found")
		}
		if want := m.Ring().Owner(key); n.ID != want {
			t.Fatalf("Owner(%q) = %s, ring says %s", key, n.ID, want)
		}
	}
}

// fakeClock is a hand-driven obs.Clock.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func newMembershipPair(t *testing.T) (*Membership, *Membership, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	na := Node{ID: "a", Addr: "ha:1"}
	nb := Node{ID: "b", Addr: "hb:1"}
	ma := NewMembership(MembershipConfig{Self: na, Seeds: []Node{nb}, Clock: clk,
		SuspectAfter: 5 * time.Second, DeadAfter: 20 * time.Second})
	mb := NewMembership(MembershipConfig{Self: nb, Seeds: []Node{na}, Clock: clk,
		SuspectAfter: 5 * time.Second, DeadAfter: 20 * time.Second})
	return ma, mb, clk
}

func TestMembershipDigestMergeLearnsNodes(t *testing.T) {
	ma, mb, _ := newMembershipPair(t)
	// A third node c gossips with a; b learns of c transitively.
	mc := NewMembership(MembershipConfig{Self: Node{ID: "c", Addr: "hc:1"},
		Seeds: []Node{{ID: "a", Addr: "ha:1"}}, Clock: &fakeClock{now: time.Unix(1000, 0)}})
	mc.Tick()
	ma.Merge(mc.Digest())
	mb.Merge(ma.Digest())
	if !mb.Map().Has("c") {
		t.Fatal("b did not learn of c through a's digest")
	}
	if got := mb.Map().Version; got < 2 {
		t.Fatalf("version did not advance on membership change: %d", got)
	}
}

func TestMembershipSuspectThenDead(t *testing.T) {
	ma, mb, clk := newMembershipPair(t)
	// Healthy exchange first: b's heartbeat reaches a.
	mb.Tick()
	ma.Merge(mb.Digest())
	if ma.State("b") != StateAlive {
		t.Fatal("b should be alive after merge")
	}
	v := ma.Map().Version

	// Silence: past SuspectAfter b turns suspect but STAYS in the map.
	clk.now = clk.now.Add(6 * time.Second)
	ma.Tick()
	if ma.State("b") != StateSuspect {
		t.Fatalf("b should be suspect, got %v", ma.State("b"))
	}
	if !ma.Map().Has("b") {
		t.Fatal("suspect node must stay on the ring")
	}
	if ma.Map().Version != v {
		t.Fatal("suspicion must not bump the map version (no ownership change)")
	}

	// Far past DeadAfter b is dead and out of the map.
	clk.now = clk.now.Add(30 * time.Second)
	ma.Tick()
	if ma.State("b") != StateDead {
		t.Fatalf("b should be dead, got %v", ma.State("b"))
	}
	if ma.Map().Has("b") {
		t.Fatal("dead node must leave the ring")
	}
	if ma.Map().Version <= v {
		t.Fatal("death must bump the map version")
	}

	// Resurrection: a fresh heartbeat brings b back.
	mb.Tick()
	mb.Tick()
	ma.Merge(mb.Digest())
	if ma.State("b") != StateAlive || !ma.Map().Has("b") {
		t.Fatal("b should rejoin on a fresh heartbeat")
	}
}

func TestGossiperRoundsConverge(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	nodes := []Node{{ID: "a", Addr: "ha"}, {ID: "b", Addr: "hb"}, {ID: "c", Addr: "hc"}}
	views := make(map[string]*Membership)
	for i, n := range nodes {
		// Ring topology of seeds: a knows b, b knows c, c knows a.
		seed := nodes[(i+1)%len(nodes)]
		views[n.ID] = NewMembership(MembershipConfig{Self: n, Seeds: []Node{seed}, Clock: clk})
	}
	exch := func(ctx context.Context, peer Node, d Digest) (Digest, error) {
		v, ok := views[peer.ID]
		if !ok {
			return Digest{}, fmt.Errorf("unknown peer %s", peer.ID)
		}
		reply := v.Merge(d)
		_ = reply
		return v.Digest(), nil
	}
	gossipers := make([]*Gossiper, 0, len(nodes))
	for _, n := range nodes {
		gossipers = append(gossipers, &Gossiper{M: views[n.ID], Exchange: exch, Fanout: 1})
	}
	for round := 0; round < 4; round++ {
		for _, g := range gossipers {
			g.RunOnce(context.Background())
		}
	}
	for id, v := range views {
		m := v.Map()
		if len(m.Nodes) != 3 {
			t.Fatalf("node %s sees %d nodes after convergence, want 3", id, len(m.Nodes))
		}
	}
}

func TestMembershipMarkDead(t *testing.T) {
	ma, _, _ := newMembershipPair(t)
	v := ma.Map().Version
	ma.MarkDead("b")
	if ma.Map().Has("b") || ma.Map().Version <= v {
		t.Fatal("MarkDead must drop the node and bump the version")
	}
	ma.MarkDead("b") // idempotent
}

func TestMembershipOnChange(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var published []*Map
	m := NewMembership(MembershipConfig{Self: Node{ID: "a", Addr: "ha"}, Clock: clk,
		OnChange: func(mp *Map) { published = append(published, mp) }})
	m.Merge(Digest{From: Node{ID: "b", Addr: "hb"}})
	if len(published) != 1 || !published[0].Has("b") {
		t.Fatalf("OnChange not fired for join: %+v", published)
	}
	m.Merge(Digest{From: Node{ID: "b", Addr: "hb"}}) // no change, no publish
	if len(published) != 1 {
		t.Fatal("OnChange fired without a membership change")
	}
}

func TestObsClockSatisfied(t *testing.T) {
	// Compile-time-ish check that the production clock slots in.
	_ = NewMembership(MembershipConfig{Self: Node{ID: "x", Addr: "h"}, Clock: obs.System})
}
