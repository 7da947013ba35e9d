package operator

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/protocol"
)

// deadAddr returns an address that refuses connections: a listener bound
// and immediately closed, so its port is (momentarily) free.
func deadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// TestWireClientRedialBackoffJitter pins the redial schedule through the
// injectable clock and jitter source: a failed dial arms a jittered
// backoff, attempts inside the window fail fast with ErrRedialBackoff,
// the window doubles per consecutive failure from redialBackoff up to
// redialMaxBackoff, and the jitter spreads the deadline over
// [base/2, base).
func TestWireClientRedialBackoffJitter(t *testing.T) {
	c := NewWireClient(deadAddr(t), WireClientOptions{})
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	c.now = func() time.Time { return now }
	jitter := 0.5
	c.jitter = func() float64 { return jitter }

	dial := func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.dialLocked()
	}

	// First dial fails against the dead address and arms the backoff:
	// 50ms base, jitter 0.5 → deadline now + 25ms + 12.5ms.
	if err := dial(); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if want := now.Add(37500 * time.Microsecond); !c.nextDialAt.Equal(want) {
		t.Fatalf("nextDialAt = %v, want %v", c.nextDialAt, want)
	}

	// Inside the window: fail fast, no network attempt, schedule intact.
	if err := dial(); !errors.Is(err, ErrRedialBackoff) {
		t.Fatalf("dial inside backoff window: %v, want ErrRedialBackoff", err)
	}
	if want := now.Add(37500 * time.Microsecond); !c.nextDialAt.Equal(want) {
		t.Fatalf("fast-fail moved the deadline to %v", c.nextDialAt)
	}

	// Past the deadline the dial is attempted again; the failure doubles
	// the base (100ms) and re-jitters: +50ms + 25ms.
	now = now.Add(40 * time.Millisecond)
	if err := dial(); errors.Is(err, ErrRedialBackoff) {
		t.Fatal("dial past deadline still backing off")
	}
	if want := now.Add(75 * time.Millisecond); !c.nextDialAt.Equal(want) {
		t.Fatalf("after second failure nextDialAt = %v, want %v", c.nextDialAt, want)
	}

	// A different jitter draw lands elsewhere in [base/2, base): the
	// fleet does not redial in lockstep. Jitter 0 is the window floor.
	jitter = 0.0
	for _, base := range []time.Duration{
		200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond,
		1600 * time.Millisecond, 3200 * time.Millisecond,
		redialMaxBackoff, redialMaxBackoff, // 6.4s caps at 5s and stays there
	} {
		now = now.Add(redialMaxBackoff)
		if err := dial(); errors.Is(err, ErrRedialBackoff) {
			t.Fatal("dial past deadline still backing off")
		}
		if want := now.Add(base / 2); !c.nextDialAt.Equal(want) {
			t.Fatalf("at base %v nextDialAt = %v, want %v", base, c.nextDialAt, want)
		}
	}
}

// TestWireClientRedialBackoffResetsOnSuccess verifies both ends of the
// backoff lifecycle: a submission attempted inside the window surfaces
// as a conn-lost error without touching the network, and a successful
// handshake clears the armed state entirely.
func TestWireClientRedialBackoffResetsOnSuccess(t *testing.T) {
	s := startEchoWire(t)
	c := NewWireClient(s.lis.Addr().String(), WireClientOptions{
		BatchSize: 1, // flush immediately
	})
	defer c.Close()

	// Arm the backoff as a failed dial would, with the window still open:
	// the submission must fail fast as a lost connection.
	c.mu.Lock()
	c.redialWait = time.Second
	c.nextDialAt = time.Now().Add(time.Hour)
	c.mu.Unlock()
	_, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: "d", EncryptedPoA: []byte("x")})
	if !errors.Is(err, ErrWireConnLost) {
		t.Fatalf("submit during backoff: %v, want ErrWireConnLost", err)
	}

	// Window expired: the dial goes through and the handshake resets the
	// schedule for the next incident.
	c.mu.Lock()
	c.nextDialAt = time.Now().Add(-time.Millisecond)
	c.mu.Unlock()
	if _, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: "d", EncryptedPoA: []byte("y")}); err != nil {
		t.Fatalf("submit after window: %v", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.redialWait != 0 || !c.nextDialAt.IsZero() {
		t.Fatalf("successful handshake left backoff armed: wait=%v next=%v", c.redialWait, c.nextDialAt)
	}
}
