package cluster

import (
	"context"
	"time"
)

// Exchange delivers our digest to a peer and returns the peer's digest.
// The router supplies the transport (POST /cluster/gossip); tests inject
// an in-process function.
type Exchange func(ctx context.Context, peer Node, d Digest) (Digest, error)

// DefaultGossipInterval paces production gossip rounds.
const DefaultGossipInterval = time.Second

// Gossiper drives the periodic rounds: tick the membership (heartbeat +
// failure detection), pick peers round-robin, and exchange digests.
// Round-robin rather than random selection keeps rounds deterministic
// under test while still touching every peer within len(peers) rounds.
type Gossiper struct {
	// M is the membership view to gossip.
	M *Membership
	// Exchange is the digest transport (required).
	Exchange Exchange
	// Interval paces Run's rounds (0 = DefaultGossipInterval).
	Interval time.Duration
	// Fanout is the number of peers contacted per round (0 = 2).
	Fanout int
	// OnError, when set, observes failed exchanges (logging hook).
	OnError func(peer Node, err error)

	next int // round-robin cursor
}

// RunOnce performs one gossip round. It is the unit tests drive
// directly; Run just paces it.
func (g *Gossiper) RunOnce(ctx context.Context) {
	g.M.Tick()
	peers := g.M.Peers()
	if len(peers) == 0 {
		return
	}
	fanout := g.Fanout
	if fanout <= 0 {
		fanout = 2
	}
	if fanout > len(peers) {
		fanout = len(peers)
	}
	for i := 0; i < fanout; i++ {
		peer := peers[g.next%len(peers)]
		g.next++
		resp, err := g.Exchange(ctx, peer, g.M.Digest())
		if err != nil {
			if g.OnError != nil {
				g.OnError(peer, err)
			}
			continue
		}
		g.M.Merge(resp)
	}
}

// Run gossips every Interval until ctx is cancelled.
func (g *Gossiper) Run(ctx context.Context) {
	interval := g.Interval
	if interval <= 0 {
		interval = DefaultGossipInterval
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.RunOnce(ctx)
		case <-ctx.Done():
			return
		}
	}
}
