package operator

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// echoWireServer is a minimal in-test auditor wire endpoint: it speaks
// the handshake and acks every submission as compliant, so client-side
// batching and reconnect behaviour can be observed without a full
// Server (which would make this an import cycle anyway).
type echoWireServer struct {
	lis net.Listener
	// misroute is how many submissions to answer with the single-hop
	// guard's misrouted ack before acking compliant.
	misroute atomic.Int32
}

func startEchoWire(t *testing.T) *echoWireServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoWireServer{lis: lis}
	go s.serve()
	t.Cleanup(func() { lis.Close() })
	return s
}

func (s *echoWireServer) serve() {
	for {
		c, err := s.lis.Accept()
		if err != nil {
			return
		}
		go s.handle(c)
	}
}

func (s *echoWireServer) handle(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	if _, data, err := wire.ReadFrame(br, wire.MaxMessageBytes); err != nil {
		return
	} else if typ, _, terr := wire.SplitType(data); terr != nil || typ != wire.TypeHello {
		return
	}
	if _, err := c.Write(wire.EncodeHelloAck(nil, wire.HelloAck{Version: wire.Version1})); err != nil {
		return
	}
	for {
		_, data, err := wire.ReadFrame(br, wire.MaxMessageBytes)
		if err != nil {
			return
		}
		typ, body, err := wire.SplitType(data)
		if err != nil || typ != wire.TypeSubmit {
			return
		}
		sub, err := wire.DecodeSubmit(body)
		if err != nil {
			return
		}
		ack := wire.Ack{Seq: sub.Seq, Status: wire.StatusCompliant}
		if s.misroute.Add(-1) >= 0 {
			ack = protocol.AckFor(sub.Seq, protocol.SubmitPoAResponse{}, &protocol.MisroutedError{DroneID: sub.DroneID})
		}
		acks, err := wire.EncodeAcks(nil, []wire.Ack{ack})
		if err != nil {
			return
		}
		if _, err := c.Write(acks); err != nil {
			return
		}
	}
}

// TestWireClientBatchesSubmissions pins the batching contract: with the
// flush timer effectively disabled, BatchSize concurrent submissions
// share exactly one network flush.
func TestWireClientBatchesSubmissions(t *testing.T) {
	s := startEchoWire(t)
	reg := obs.NewRegistry(nil)
	c := NewWireClient(s.lis.Addr().String(), WireClientOptions{
		BatchSize:     3,
		FlushInterval: time.Hour, // only the size threshold may flush
		Metrics:       reg,
	})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.SubmitPoA(protocol.SubmitPoARequest{DroneID: "d", EncryptedPoA: []byte{byte(i)}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if got := reg.Counter(MetricWireClientFlushesTotal).Value(); got != 1 {
		t.Errorf("flushes = %d, want 1 (three submissions coalesced)", got)
	}
	if got := reg.Counter(MetricWireClientSubmitsTotal).Value(); got != 3 {
		t.Errorf("submits = %d, want 3", got)
	}
}

// TestWireClientTimerFlush: a lone submission below BatchSize still
// completes once FlushInterval elapses.
func TestWireClientTimerFlush(t *testing.T) {
	s := startEchoWire(t)
	reg := obs.NewRegistry(nil)
	c := NewWireClient(s.lis.Addr().String(), WireClientOptions{
		BatchSize:     100, // never reached
		FlushInterval: time.Millisecond,
		Metrics:       reg,
	})
	defer c.Close()

	resp, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: "d", EncryptedPoA: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Errorf("verdict = %v", resp.Verdict)
	}
	if got := reg.Counter(MetricWireClientFlushesTotal).Value(); got != 1 {
		t.Errorf("flushes = %d, want 1 (timer-driven)", got)
	}
}

// TestWireClientRedialsAfterConnLoss drops the connection under the
// client and checks the next submission transparently redials.
func TestWireClientRedialsAfterConnLoss(t *testing.T) {
	s := startEchoWire(t)
	reg := obs.NewRegistry(nil)
	c := NewWireClient(s.lis.Addr().String(), WireClientOptions{
		BatchSize:     1, // flush immediately
		FlushInterval: time.Millisecond,
		Metrics:       reg,
	})
	defer c.Close()

	if _, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: "d", EncryptedPoA: []byte{1}}); err != nil {
		t.Fatal(err)
	}

	// Kill the transport out from under the client.
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		t.Fatal("no live connection after a successful submission")
	}
	conn.Close()

	// The next submission may race the close notification; a lost-conn
	// error is acceptable once, after which the redial must succeed.
	if _, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: "d", EncryptedPoA: []byte{2}}); err != nil {
		if _, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: "d", EncryptedPoA: []byte{3}}); err != nil {
			t.Fatalf("submission after reconnect: %v", err)
		}
	}
	if got := reg.Counter(MetricWireClientDialsTotal).Value(); got != 2 {
		t.Errorf("dials = %d, want 2 (initial + redial)", got)
	}
}

// TestWireClientRetriesMisdirected is TestClientRetriesMisdirected over
// the binary door: a cluster node's single-hop guard acks misrouted before
// any stage judges the submission, so the client resends it under its
// retry policy; the resend lands once the nodes agree on the owner.
func TestWireClientRetriesMisdirected(t *testing.T) {
	s := startEchoWire(t)
	s.misroute.Store(1)
	reg := obs.NewRegistry(nil)
	w := NewWireAuditor(NewHTTPAuditor("http://127.0.0.1:1", nil), s.lis.Addr().String(), WireClientOptions{
		BatchSize: 1,
		Retry:     RetryPolicy{Max: 3, Backoff: time.Millisecond},
		Metrics:   reg,
	})
	defer w.Close()
	w.wc.SetSleep(func(time.Duration) {})
	resp, err := w.SubmitPoA(protocol.SubmitPoARequest{DroneID: "drone-1", EncryptedPoA: []byte{1}})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("submit after a misrouted ack: %v / %+v", err, resp)
	}
	if got := reg.Counter(MetricWireClientRetriesTotal).Value(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}

	// Without a retry budget the misrouted error surfaces, typed.
	s.misroute.Store(1)
	bare := NewWireClient(s.lis.Addr().String(), WireClientOptions{BatchSize: 1})
	defer bare.Close()
	if _, err := bare.SubmitPoA(protocol.SubmitPoARequest{DroneID: "drone-1", EncryptedPoA: []byte{2}}); !errors.Is(err, protocol.ErrMisrouted) {
		t.Errorf("err = %v, want ErrMisrouted", err)
	}
}
