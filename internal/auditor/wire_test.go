package auditor

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// startWire spins up a WireServer for srv on a loopback listener and
// tears it down with the test.
func startWire(t *testing.T, srv *Server, opts WireOptions) net.Addr {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(srv, opts)
	go func() { _ = ws.Serve(lis) }()
	t.Cleanup(func() { ws.Close() })
	return lis.Addr()
}

func TestWireSubmitVerdicts(t *testing.T) {
	srv, id, keys := newFixture(t)
	mustRegisterZone(t, srv, geo.GeoCircle{Center: urbana.Offset(0, 50), R: 100})
	addr := startWire(t, srv, WireOptions{})

	wc := operator.NewWireClient(addr.String(), operator.WireClientOptions{})
	defer wc.Close()

	// Heading north through the zone: violation.
	resp, err := wc.SubmitPoA(protocol.SubmitPoARequest{
		DroneID:      id,
		EncryptedPoA: encryptFor(t, srv, signedTrace(t, keys, urbana, 0, 10, 10, time.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Errorf("verdict = %v, want violation (%s)", resp.Verdict, resp.Reason)
	}

	// Heading east, away from it: compliant, on the same connection.
	resp, err = wc.SubmitPoA(protocol.SubmitPoARequest{
		DroneID:      id,
		EncryptedPoA: encryptFor(t, srv, signedTrace(t, keys, urbana.Offset(90, 500), 90, 10, 10, time.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Errorf("verdict = %v, want compliant (%s)", resp.Verdict, resp.Reason)
	}

	reg := srv.Metrics()
	if got := reg.Counter(MetricWireSubmissionsTotal).Value(); got != 2 {
		t.Errorf("wire submissions counter = %d, want 2", got)
	}
	if got := reg.Counter(obs.L(MetricWireAcksTotal, "status", "compliant")).Value(); got != 1 {
		t.Errorf("compliant ack counter = %d, want 1", got)
	}
	if got := reg.Counter(obs.L(MetricWireAcksTotal, "status", "violation")).Value(); got != 1 {
		t.Errorf("violation ack counter = %d, want 1", got)
	}
}

// TestWireRetiredFramesRejected sends the frame types the protocol no
// longer defines (Register, RegisterAck, ClusterMap, Gossip): each is a
// well-formed frame, and the door must answer with the unknown-type error
// frame, count a protocol error and hang up — never skip it and read on.
func TestWireRetiredFramesRejected(t *testing.T) {
	srv, _, _ := newFixture(t)
	addr := startWire(t, srv, WireOptions{})

	for i, typ := range []byte{0x03, 0x04, 0x13, 0x14} {
		raw, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(raw)
		frames := wire.AppendFrame(wire.EncodeHello(nil), wire.Version1, []byte{typ, 0, 0, 0, 0})
		if _, err := raw.Write(frames); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wire.ReadFrame(br, wire.MaxMessageBytes); err != nil {
			t.Fatalf("type %#x: hello ack: %v", typ, err)
		}
		_, data, err := wire.ReadFrame(br, wire.MaxMessageBytes)
		if err != nil {
			t.Fatalf("type %#x: expected an error frame, read failed: %v", typ, err)
		}
		got, body, err := wire.SplitType(data)
		if err != nil || got != wire.TypeError {
			t.Fatalf("type %#x: reply type %#x (%v), want an error frame", typ, got, err)
		}
		we, err := wire.DecodeError(body)
		if err != nil || we.Message != wire.ErrUnknownType.Error() {
			t.Errorf("type %#x: error frame %q (%v), want %q", typ, we.Message, err, wire.ErrUnknownType)
		}
		if _, _, err := wire.ReadFrame(br, wire.MaxMessageBytes); err == nil {
			t.Errorf("type %#x: connection still open after the error frame", typ)
		}
		raw.Close()
		if got := srv.Metrics().Counter(MetricWireErrorsTotal).Value(); got != uint64(i+1) {
			t.Errorf("type %#x: wire errors counter = %d, want %d", typ, got, i+1)
		}
	}
}

// TestWireOverloadAckHonored pins the shedding contract on the binary
// door: a shed submission comes back as a typed overload ack that a
// no-retry client surfaces as ErrOverloaded with the server's hint, and
// a retrying client rides the hint to an eventual verdict.
func TestWireOverloadAckHonored(t *testing.T) {
	srv, id, keys := newFixtureConfig(t, Config{
		Clock:       obs.ClockFunc(func() time.Time { return t0 }),
		Metrics:     obs.NewRegistry(nil),
		MaxInflight: 1,
		QueueDepth:  -1, // shed immediately, no waiting
		RetryAfter:  1500 * time.Millisecond,
	})
	gate := make(chan struct{})
	entered := make(chan struct{})
	gateAtSignature(srv, gate, entered)
	addr := startWire(t, srv, WireOptions{})

	poaA := encryptFor(t, srv, signedTrace(t, keys, urbana, 0, 10, 5, time.Second))
	poaB := encryptFor(t, srv, signedTrace(t, keys, urbana, 90, 10, 6, time.Second))

	// Hold the only admission slot with a stalled wire submission.
	holder := operator.NewWireClient(addr.String(), operator.WireClientOptions{})
	defer holder.Close()
	held := make(chan error, 1)
	go func() {
		_, err := holder.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: poaA})
		held <- err
	}()
	<-entered

	// A no-retry client is shed with the typed error and the hint.
	shed := operator.NewWireClient(addr.String(), operator.WireClientOptions{})
	defer shed.Close()
	_, err := shed.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: poaB})
	if !errors.Is(err, protocol.ErrOverloaded) {
		t.Fatalf("shed err = %v, want ErrOverloaded", err)
	}
	var over *protocol.OverloadedError
	if !errors.As(err, &over) || over.RetryAfter != 1500*time.Millisecond {
		t.Errorf("overload err = %#v, want RetryAfter 1.5s hint", err)
	}

	// A retrying client sleeps out the hint and then gets a verdict; the
	// fake sleeper releases the gate so the slot frees up "during" the
	// backoff.
	retrier := operator.NewWireClient(addr.String(), operator.WireClientOptions{
		Retry: operator.RetryPolicy{Max: 3, Backoff: 10 * time.Millisecond},
	})
	defer retrier.Close()
	var slept []time.Duration
	var once bool
	retrier.SetSleep(func(d time.Duration) {
		slept = append(slept, d)
		if !once {
			once = true
			close(gate)
			if err := <-held; err != nil {
				t.Errorf("stalled submission: %v", err)
			}
		}
	})
	resp, err := retrier.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: poaB})
	if err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Errorf("verdict = %v, want compliant (%s)", resp.Verdict, resp.Reason)
	}
	if len(slept) == 0 || slept[0] != 1500*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want the 1.5s Retry-After hint first", slept)
	}
}

// TestWireTornFrameReconnect kills a connection mid-frame and checks the
// server shrugs it off: the torn tail is dropped, the error is counted,
// and a fresh connection gets verdicts as usual.
func TestWireTornFrameReconnect(t *testing.T) {
	srv, id, keys := newFixture(t)
	addr := startWire(t, srv, WireOptions{})

	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	if _, err := raw.Write(wire.EncodeHello(nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadFrame(br, wire.MaxMessageBytes); err != nil {
		t.Fatalf("hello ack: %v", err)
	}
	// Write two-thirds of a submission frame, then die.
	frame := wire.EncodeSubmit(nil, wire.Submit{
		Seq:        1,
		DroneID:    id,
		Ciphertext: encryptFor(t, srv, signedTrace(t, keys, urbana, 0, 10, 5, time.Second)),
	})
	if _, err := raw.Write(frame[:2*len(frame)/3]); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// The server must keep serving: a fresh client gets a verdict.
	wc := operator.NewWireClient(addr.String(), operator.WireClientOptions{})
	defer wc.Close()
	resp, err := wc.SubmitPoA(protocol.SubmitPoARequest{
		DroneID:      id,
		EncryptedPoA: encryptFor(t, srv, signedTrace(t, keys, urbana, 0, 10, 5, time.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Errorf("post-reconnect verdict = %v, want compliant (%s)", resp.Verdict, resp.Reason)
	}
	// The torn write was observed and counted (the read loop may need a
	// beat to see the close).
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().Counter(MetricWireErrorsTotal).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("torn frame never counted in wire errors")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireBadCRCGetsErrorFrame corrupts a frame payload in flight and
// expects a fatal protocol error frame back before the server hangs up.
func TestWireBadCRCGetsErrorFrame(t *testing.T) {
	srv, id, keys := newFixture(t)
	addr := startWire(t, srv, WireOptions{})

	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	if _, err := raw.Write(wire.EncodeHello(nil)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadFrame(br, wire.MaxMessageBytes); err != nil {
		t.Fatalf("hello ack: %v", err)
	}
	frame := wire.EncodeSubmit(nil, wire.Submit{
		Seq:        1,
		DroneID:    id,
		Ciphertext: encryptFor(t, srv, signedTrace(t, keys, urbana, 0, 10, 5, time.Second)),
	})
	frame[len(frame)-1] ^= 0xff // corrupt the payload, not the header
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}

	kind, data, err := wire.ReadFrame(br, wire.MaxMessageBytes)
	if err != nil {
		t.Fatalf("expected an error frame, read failed: %v", err)
	}
	typ, body, err := wire.SplitType(data)
	if err != nil || kind != wire.Version1 || typ != wire.TypeError {
		t.Fatalf("reply kind=%#x typ=%#x err=%v, want a v1 error frame", kind, typ, err)
	}
	we, err := wire.DecodeError(body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(we.Message), "crc") {
		t.Errorf("error message %q does not mention the CRC", we.Message)
	}
}

// TestWireUnknownVersionRejected sends a hello from the future and
// expects the version-mismatch error frame (the downgrade signal).
func TestWireUnknownVersionRejected(t *testing.T) {
	srv, _, _ := newFixture(t)
	addr := startWire(t, srv, WireOptions{})

	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	// A well-framed hello with version byte 0x63.
	if _, err := raw.Write(wire.AppendFrame(nil, 0x63, []byte{wire.TypeHello})); err != nil {
		t.Fatal(err)
	}
	kind, data, err := wire.ReadFrame(br, wire.MaxMessageBytes)
	if err != nil {
		t.Fatalf("expected an error frame, read failed: %v", err)
	}
	typ, body, splitErr := wire.SplitType(data)
	if splitErr != nil || kind != wire.Version1 || typ != wire.TypeError {
		t.Fatalf("reply kind=%#x typ=%#x err=%v, want a v1 error frame", kind, typ, splitErr)
	}
	we, err := wire.DecodeError(body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(we.Message, "version") {
		t.Errorf("error message %q does not mention the version", we.Message)
	}
}
