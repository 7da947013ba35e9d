package wire

// Conn invariants, run under -race (-count=10 in the gate): sequence
// numbers pair every submission with its own ack under concurrency, a
// failure releases every waiter exactly once, a cancelled waiter leaves
// nothing behind, and the handshake downgrades to what the peer speaks.
import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// servePeer runs handle on every connection accepted on a loopback
// listener and returns its address. handle owns the connection.
func servePeer(t *testing.T, handle func(nc net.Conn, br *bufio.Reader)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { lis.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				handle(nc, bufio.NewReader(nc))
			}()
		}
	}()
	return lis.Addr().String()
}

// acceptHello reads the Hello and acks it at the proposed version.
func acceptHello(nc net.Conn, br *bufio.Reader) bool {
	version, data, err := ReadFrame(br, MaxMessageBytes)
	if err != nil || len(data) == 0 || data[0] != TypeHello {
		return false
	}
	_, err = nc.Write(EncodeHelloAck(nil, HelloAck{Version: version}))
	return err == nil
}

// readSubmit reads one Submit frame; ok=false at end of stream.
func readSubmit(br *bufio.Reader) (Submit, bool) {
	_, data, err := ReadFrame(br, MaxMessageBytes)
	if err != nil || len(data) == 0 || data[0] != TypeSubmit {
		return Submit{}, false
	}
	s, err := DecodeSubmit(data[1:])
	return s, err == nil
}

func dialTest(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConnConcurrentBeginAck: many goroutines share one connection; the
// peer acks in pairs and out of order, echoing each submission's drone ID
// as the reason, so a mis-delivered ack shows.
func TestConnConcurrentBeginAck(t *testing.T) {
	addr := servePeer(t, func(nc net.Conn, br *bufio.Reader) {
		if !acceptHello(nc, br) {
			return
		}
		for {
			a, ok := readSubmit(br)
			if !ok {
				return
			}
			b, ok := readSubmit(br)
			if !ok {
				return
			}
			frame, _ := EncodeAcks(nil, []Ack{
				{Seq: b.Seq, Status: StatusCompliant, Reason: b.DroneID},
				{Seq: a.Seq, Status: StatusViolation, Reason: a.DroneID},
			})
			if _, err := nc.Write(frame); err != nil {
				return
			}
		}
	})
	c := dialTest(t, addr)
	if c.Version() != LatestVersion {
		t.Fatalf("negotiated version %d, want %d", c.Version(), LatestVersion)
	}

	const n = 64 // even: the peer acks in pairs
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("drone-%d", i)
			p, err := c.Begin()
			if err != nil {
				t.Errorf("%s: begin: %v", id, err)
				return
			}
			if err := c.Write(EncodeSubmit(nil, Submit{Seq: p.Seq, DroneID: id})); err != nil {
				t.Errorf("%s: write: %v", id, err)
				return
			}
			ack, err := p.Wait(context.Background())
			if err != nil || ack.Seq != p.Seq || ack.Reason != id {
				t.Errorf("%s: ack %+v, %v; want seq %d echoing the id", id, ack, err, p.Seq)
			}
		}(i)
	}
	wg.Wait()
	if left := pendingLen(c); left != 0 {
		t.Errorf("%d waiters left after every ack arrived", left)
	}
}

func pendingLen(c *Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// TestConnFailReleasesEveryWaiter: the peer acks some submissions and
// then drops the connection. Every waiter returns — with its ack or with
// ErrConnLost, never hanging — and the dead connection refuses new work.
// Failing it again (a waiter channel closed twice would panic) must be
// harmless.
func TestConnFailReleasesEveryWaiter(t *testing.T) {
	const n, acked = 40, 10
	addr := servePeer(t, func(nc net.Conn, br *bufio.Reader) {
		if !acceptHello(nc, br) {
			return
		}
		for i := 0; i < n; i++ {
			s, ok := readSubmit(br)
			if !ok {
				return
			}
			if i < acked {
				frame, _ := EncodeAcks(nil, []Ack{{Seq: s.Seq}})
				_, _ = nc.Write(frame)
			}
		}
		// returning closes the connection under the remaining waiters
	})
	c := dialTest(t, addr)

	results := make(chan error, n)
	var frames []byte
	var waiters []Pending
	for i := 0; i < n; i++ {
		p, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		waiters = append(waiters, p)
		frames = EncodeSubmit(frames, Submit{Seq: p.Seq, DroneID: "d"})
	}
	for _, p := range waiters {
		go func(p Pending) {
			_, err := p.Wait(context.Background())
			results <- err
		}(p)
	}
	if err := c.Write(frames); err != nil {
		t.Fatal(err)
	}
	var ok, lost int
	for i := 0; i < n; i++ {
		select {
		case err := <-results:
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrConnLost):
				lost++
			default:
				t.Errorf("waiter error %v, want an ack or ErrConnLost", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d never released (%d acked, %d lost so far)", i, ok, lost)
		}
	}
	if ok != acked || lost != n-acked {
		t.Errorf("acked %d, lost %d; want %d and %d", ok, lost, acked, n-acked)
	}
	if _, err := c.Begin(); !errors.Is(err, ErrConnLost) {
		t.Errorf("Begin on a dead connection: %v, want ErrConnLost", err)
	}
	if err := c.Write(frames); !errors.Is(err, ErrConnLost) {
		t.Errorf("Write on a dead connection: %v, want ErrConnLost", err)
	}
	c.Close()
	c.Close()
}

// TestConnContextCancelRemovesWaiter: a waiter whose context ends is
// taken out of the pending map, its late ack is dropped, and the
// connection keeps serving the others.
func TestConnContextCancelRemovesWaiter(t *testing.T) {
	release := make(chan struct{})
	addr := servePeer(t, func(nc net.Conn, br *bufio.Reader) {
		if !acceptHello(nc, br) {
			return
		}
		first, ok := readSubmit(br)
		if !ok {
			return
		}
		<-release // hold the first ack until its waiter has given up
		second, ok := readSubmit(br)
		if !ok {
			return
		}
		frame, _ := EncodeAcks(nil, []Ack{{Seq: first.Seq}, {Seq: second.Seq}})
		_, _ = nc.Write(frame)
		readSubmit(br) // wait for the client to hang up
	})
	c := dialTest(t, addr)

	p1, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(EncodeSubmit(nil, Submit{Seq: p1.Seq, DroneID: "d"})); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p1.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait: %v, want context.Canceled", err)
	}
	if left := pendingLen(c); left != 0 {
		t.Fatalf("%d waiters left after the only one was cancelled", left)
	}
	close(release)

	p2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(EncodeSubmit(nil, Submit{Seq: p2.Seq, DroneID: "d"})); err != nil {
		t.Fatal(err)
	}
	if ack, err := p2.Wait(context.Background()); err != nil || ack.Seq != p2.Seq {
		t.Fatalf("second submission after a dropped late ack: %+v, %v", ack, err)
	}
	if err := c.Err(); err != nil {
		t.Errorf("connection failed on a late ack: %v", err)
	}
}

// TestDialDowngradesToVersion1 covers both ways an older peer answers a
// LatestVersion hello: acking at the version it speaks, and refusing
// outright so the dialer reconnects proposing Version1.
func TestDialDowngradesToVersion1(t *testing.T) {
	t.Run("ack at older version", func(t *testing.T) {
		addr := servePeer(t, func(nc net.Conn, br *bufio.Reader) {
			if _, _, err := ReadFrame(br, MaxMessageBytes); err != nil {
				return
			}
			_, _ = nc.Write(EncodeHelloAck(nil, HelloAck{Version: Version1}))
			readSubmit(br)
		})
		if c := dialTest(t, addr); c.Version() != Version1 {
			t.Errorf("negotiated version %d, want Version1", c.Version())
		}
	})
	t.Run("refuse then redial", func(t *testing.T) {
		var mu sync.Mutex
		var proposed []byte
		addr := servePeer(t, func(nc net.Conn, br *bufio.Reader) {
			version, _, err := ReadFrame(br, MaxMessageBytes)
			if err != nil {
				return
			}
			mu.Lock()
			proposed = append(proposed, version)
			mu.Unlock()
			if version != Version1 {
				_, _ = nc.Write(EncodeError(nil, WireError{Message: ErrUnknownVersion.Error()}))
				return
			}
			_, _ = nc.Write(EncodeHelloAck(nil, HelloAck{Version: Version1}))
			readSubmit(br)
		})
		if c := dialTest(t, addr); c.Version() != Version1 {
			t.Errorf("negotiated version %d, want Version1", c.Version())
		}
		mu.Lock()
		defer mu.Unlock()
		if !bytes.Equal(proposed, []byte{LatestVersion, Version1}) {
			t.Errorf("hello versions seen %v, want [%d %d]", proposed, LatestVersion, Version1)
		}
	})
	t.Run("peer acks a newer version than proposed", func(t *testing.T) {
		addr := servePeer(t, func(nc net.Conn, br *bufio.Reader) {
			if _, _, err := ReadFrame(br, MaxMessageBytes); err != nil {
				return
			}
			_, _ = nc.Write(EncodeHelloAck(nil, HelloAck{Version: LatestVersion + 1}))
		})
		if c, err := Dial(addr, 5*time.Second); err == nil {
			c.Close()
			t.Error("dial accepted a version this build does not speak")
		}
	})
}

// TestConnPeerErrorFrame: a fatal Error frame from the peer fails the
// connection and surfaces its message to whoever was waiting.
func TestConnPeerErrorFrame(t *testing.T) {
	addr := servePeer(t, func(nc net.Conn, br *bufio.Reader) {
		if !acceptHello(nc, br) {
			return
		}
		if _, ok := readSubmit(br); !ok {
			return
		}
		_, _ = nc.Write(EncodeError(nil, WireError{Message: "wire: frame CRC mismatch"}))
	})
	c := dialTest(t, addr)
	p, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(EncodeSubmit(nil, Submit{Seq: p.Seq, DroneID: "d"})); err != nil {
		t.Fatal(err)
	}
	_, err = p.Wait(context.Background())
	if !errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("wait after a peer error frame: %v, want ErrConnLost naming the peer's message", err)
	}
	if _, err := c.Begin(); !errors.Is(err, ErrConnLost) {
		t.Errorf("Begin after a peer error frame: %v, want ErrConnLost", err)
	}
}

// TestRetiredFramesRejected: the frame types the protocol no longer
// defines are still well-formed frames, and the client half must refuse
// them as unknown types instead of skipping them (the server half is
// covered in internal/auditor).
func TestRetiredFramesRejected(t *testing.T) {
	for name, raw := range retiredFrames {
		_, data, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)), MaxMessageBytes)
		if err != nil {
			t.Fatalf("%s: retired frame no longer reads back: %v", name, err)
		}
		if err := new(Conn).deliver(data); !errors.Is(err, ErrUnknownType) {
			t.Errorf("%s: deliver = %v, want ErrUnknownType", name, err)
		}
	}
}
