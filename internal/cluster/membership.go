package cluster

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// MemberState is one node's health as locally observed.
type MemberState int

const (
	// StateAlive: heartbeats are advancing.
	StateAlive MemberState = iota
	// StateSuspect: no heartbeat advance within SuspectAfter. Suspects
	// stay on the ring — a single missed gossip round must not trigger
	// an ownership churn — but readiness and peer selection deprioritize
	// them.
	StateSuspect
	// StateDead: no advance within DeadAfter. Dead nodes leave the map
	// (version bump); a later heartbeat resurrects them.
	StateDead
)

// String names the state for logs and digests.
func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// Default failure-detection windows. Gossip rounds default to ~1s, so
// suspicion needs several consecutive misses and death an order of
// magnitude more.
const (
	DefaultSuspectAfter = 5 * time.Second
	DefaultDeadAfter    = 20 * time.Second
)

// Digest is one gossip exchange payload: the sender's identity and its
// view of every known member's heartbeat. Digests travel as the body of
// POST /cluster/gossip.
type Digest struct {
	From    Node          `json:"from"`
	Version uint64        `json:"version"`
	Entries []DigestEntry `json:"entries"`
}

// DigestEntry is one member row of a digest.
type DigestEntry struct {
	Node      Node   `json:"node"`
	Heartbeat uint64 `json:"heartbeat"`
	State     string `json:"state,omitempty"`
}

// MembershipConfig configures a node's membership view.
type MembershipConfig struct {
	// Self is this node; it is always alive in its own view.
	Self Node
	// Seeds are the bootstrap peers from the -peers flag; they start
	// alive with heartbeat zero and are confirmed (or suspected) by the
	// first gossip rounds.
	Seeds []Node
	// Clock drives staleness detection; nil means obs.System.
	Clock obs.Clock
	// VNodes is the ring's virtual-node count (0 = DefaultVNodes).
	VNodes int
	// SuspectAfter/DeadAfter are the failure-detection windows
	// (0 = defaults above).
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// OnChange, when set, observes every newly published map (called
	// outside the membership lock). The router hooks its rebalance/
	// handoff path in here.
	OnChange func(*Map)
}

type member struct {
	node      Node
	heartbeat uint64
	state     MemberState
	// lastAdvance is the local clock reading when the heartbeat last
	// increased. Staleness is judged against local observation time, not
	// remote timestamps, so skewed peer clocks cannot poison detection.
	lastAdvance time.Time
}

// Membership is a node's eventually consistent view of the cluster. It
// is the gossip state machine: Tick advances the local heartbeat and
// demotes stale peers, Merge folds in a peer's digest, and Map publishes
// the resulting ring membership as an immutable versioned snapshot.
type Membership struct {
	cfg MembershipConfig

	mu      sync.Mutex
	members map[string]*member // keyed by node ID, self included
	version uint64
	current *Map // cached last-published map
}

// NewMembership builds the initial view: self alive, seeds provisionally
// alive awaiting their first heartbeat.
func NewMembership(cfg MembershipConfig) *Membership {
	if cfg.Clock == nil {
		cfg.Clock = obs.System
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = DefaultSuspectAfter
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		cfg.DeadAfter = cfg.SuspectAfter * 4
	}
	m := &Membership{cfg: cfg, members: make(map[string]*member)}
	now := cfg.Clock.Now()
	m.members[cfg.Self.ID] = &member{node: cfg.Self, state: StateAlive, lastAdvance: now}
	for _, s := range cfg.Seeds {
		if s.ID == cfg.Self.ID {
			continue
		}
		m.members[s.ID] = &member{node: s, state: StateAlive, lastAdvance: now}
	}
	m.version = 1
	m.current = m.buildMapLocked()
	return m
}

// Self returns this node's identity.
func (m *Membership) Self() Node { return m.cfg.Self }

// Tick advances the local heartbeat and runs failure detection over the
// peers. The gossiper calls it once per round; tests call it directly
// under a fake clock.
func (m *Membership) Tick() {
	m.mu.Lock()
	now := m.cfg.Clock.Now()
	self := m.members[m.cfg.Self.ID]
	self.heartbeat++
	self.lastAdvance = now

	changed := false
	for id, mb := range m.members {
		if id == m.cfg.Self.ID {
			continue
		}
		age := now.Sub(mb.lastAdvance)
		switch {
		case age > m.cfg.DeadAfter && mb.state != StateDead:
			mb.state = StateDead
			changed = true // leaves the ring
		case age > m.cfg.SuspectAfter && mb.state == StateAlive:
			mb.state = StateSuspect // stays on the ring
		}
	}
	m.publishLocked(changed)
}

// Merge folds a peer's digest into the local view: unknown nodes join,
// advancing heartbeats refresh liveness (resurrecting suspects and
// deads), and the version adopts the highest seen. It returns the map
// published after the merge.
func (m *Membership) Merge(d Digest) *Map {
	m.mu.Lock()
	now := m.cfg.Clock.Now()
	changed := false
	if d.Version > m.version {
		m.version = d.Version
		changed = true
	}
	// refresh applies one observation; fresh=true means proof of life
	// regardless of the heartbeat comparison (the digest's sender proved
	// its own liveness by contacting us).
	refresh := func(n Node, heartbeat uint64, fresh bool) {
		if n.ID == "" || n.ID == m.cfg.Self.ID {
			return
		}
		mb, ok := m.members[n.ID]
		if !ok {
			m.members[n.ID] = &member{node: n, heartbeat: heartbeat, state: StateAlive, lastAdvance: now}
			changed = true
			return
		}
		mb.node = n // addresses may be re-advertised
		if heartbeat > mb.heartbeat || fresh {
			if heartbeat > mb.heartbeat {
				mb.heartbeat = heartbeat
			}
			mb.lastAdvance = now
			if mb.state == StateDead {
				changed = true // rejoins the ring
			}
			mb.state = StateAlive
		}
	}
	for _, e := range d.Entries {
		refresh(e.Node, e.Heartbeat, false)
	}
	refresh(d.From, 0, true)
	return m.publishLocked(changed)
}

// Digest snapshots the local view for a gossip exchange.
func (m *Membership) Digest() Digest {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := Digest{From: m.cfg.Self, Version: m.version}
	for _, mb := range m.members {
		d.Entries = append(d.Entries, DigestEntry{Node: mb.node, Heartbeat: mb.heartbeat, State: mb.state.String()})
	}
	return d
}

// Map returns the last published cluster map.
func (m *Membership) Map() *Map {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.current
}

// Peers returns the non-dead peers (self excluded), alive before
// suspect, for gossip target selection.
func (m *Membership) Peers() []Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	var alive, suspect []Node
	for id, mb := range m.members {
		if id == m.cfg.Self.ID || mb.state == StateDead {
			continue
		}
		if mb.state == StateAlive {
			alive = append(alive, mb.node)
		} else {
			suspect = append(suspect, mb.node)
		}
	}
	return append(alive, suspect...)
}

// State reports the locally observed state of a node; dead is also
// returned for nodes never heard of.
func (m *Membership) State(id string) MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mb, ok := m.members[id]; ok {
		return mb.state
	}
	return StateDead
}

// MarkDead forces a node out of the ring (operator action or a
// connection-refused fast path). A later heartbeat resurrects it.
func (m *Membership) MarkDead(id string) {
	m.mu.Lock()
	mb, ok := m.members[id]
	if !ok || id == m.cfg.Self.ID || mb.state == StateDead {
		m.mu.Unlock()
		return
	}
	mb.state = StateDead
	m.publishLocked(true)
}

// buildMapLocked assembles the map of ring members (alive + suspect).
func (m *Membership) buildMapLocked() *Map {
	var nodes []Node
	for _, mb := range m.members {
		if mb.state != StateDead {
			nodes = append(nodes, mb.node)
		}
	}
	return NewMap(m.version, m.cfg.VNodes, nodes)
}

// publishLocked rebuilds and caches the map when changed, bumping the
// version, and releases the lock (the OnChange hook must run outside
// it). It always returns the current map.
func (m *Membership) publishLocked(changed bool) *Map {
	if !changed {
		cur := m.current
		m.mu.Unlock()
		return cur
	}
	m.version++
	m.current = m.buildMapLocked()
	cur := m.current
	hook := m.cfg.OnChange
	m.mu.Unlock()
	if hook != nil {
		hook(cur)
	}
	return cur
}
