package operator

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/auditor"
	"repro/internal/geo"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/trace"
)

func TestStreamingCleanFlight(t *testing.T) {
	s := newInProcessStack(t)
	z := geo.GeoCircle{Center: urbana.Offset(0, 2000), R: 100}
	if _, err := s.srv.Zones().Register("alice", z); err != nil {
		t.Fatal(err)
	}
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rx := s.withReceiver(t, route, 5)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}

	res := s.fly(t, rx, route, []geo.GeoCircle{z}, FlightSpec{Mode: ModeStreaming})
	if res.ViolationAt >= 0 {
		t.Errorf("clean flight flagged at sample %d", res.ViolationAt)
	}
	if res.Final.Verdict != protocol.VerdictCompliant {
		t.Errorf("final verdict = %v (%s)", res.Final.Verdict, res.Final.Reason)
	}
	// The streamed trace is retained for accusations.
	if s.srv.Status().RetainedPoAs != 1 {
		t.Errorf("retained = %d, want 1", s.srv.Status().RetainedPoAs)
	}
}

func TestStreamingDetectsInsufficientPairInFlight(t *testing.T) {
	s := newInProcessStack(t)
	// Zone straddling the flight line at the midpoint: the drone flies
	// straight through its vicinity with gaps too sparse for proof.
	mid := urbana.Offset(90, 300)
	z := geo.GeoCircle{Center: mid.Offset(0, 25), R: 20}
	if _, err := s.srv.Zones().Register("bob", z); err != nil {
		t.Fatal(err)
	}

	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Receiver at 1 Hz: near a boundary 5 m away, 1 s pairs cannot prove
	// alibi (budget 44.7 m), so the online check must flag mid-flight.
	rx := s.withReceiver(t, route, 1)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}

	res := s.fly(t, rx, route, []geo.GeoCircle{z}, FlightSpec{Mode: ModeStreaming})
	if res.ViolationAt < 0 {
		t.Fatal("sparse pass next to zone not flagged in flight")
	}
	if res.Final.Verdict != protocol.VerdictViolation {
		t.Errorf("final verdict = %v, want violation", res.Final.Verdict)
	}
}

func TestStreamingOverHTTP(t *testing.T) {
	srv, err := auditor.NewServer(auditor.Config{Random: rand.New(rand.NewSource(50))})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandler(srv))
	defer hs.Close()
	client := NewHTTPAuditor(hs.URL, hs.Client())

	s := newStack(t, client, srv)
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rx := s.withReceiver(t, route, 5)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
	res := s.fly(t, rx, route, nil, FlightSpec{Mode: ModeStreaming})
	if res.Final.Verdict != protocol.VerdictCompliant {
		t.Errorf("HTTP streaming verdict = %v (%s)", res.Final.Verdict, res.Final.Reason)
	}
}

func TestStreamValidation(t *testing.T) {
	srv, err := auditor.NewServer(auditor.Config{Random: rand.New(rand.NewSource(51))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.OpenStream(protocol.OpenStreamRequest{DroneID: "nope"}); !errors.Is(err, auditor.ErrUnknownDrone) {
		t.Errorf("err = %v, want ErrUnknownDrone", err)
	}
	if _, err := srv.StreamSample(protocol.StreamSampleRequest{StreamID: "stream-9"}); !errors.Is(err, auditor.ErrUnknownStream) {
		t.Errorf("err = %v, want ErrUnknownStream", err)
	}
	if _, err := srv.CloseStream(protocol.CloseStreamRequest{StreamID: "stream-9"}); !errors.Is(err, auditor.ErrUnknownStream) {
		t.Errorf("err = %v, want ErrUnknownStream", err)
	}
}

func TestStreamRejectsForgedSample(t *testing.T) {
	s := newInProcessStack(t)
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.withReceiver(t, route, 5)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}

	open, err := s.srv.OpenStream(protocol.OpenStreamRequest{DroneID: s.drone.ID()})
	if err != nil {
		t.Fatal(err)
	}
	forged := poa.SignedSample{
		Sample: poa.Sample{Pos: urbana, Time: t0}.Canon(),
		Sig:    []byte("not a signature"),
	}
	resp, err := s.srv.StreamSample(protocol.StreamSampleRequest{StreamID: open.StreamID, Sample: forged})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Error("forged streamed sample accepted")
	}
	// The stream is poisoned: the final verdict is a violation.
	final, err := s.srv.CloseStream(protocol.CloseStreamRequest{StreamID: open.StreamID})
	if err != nil {
		t.Fatal(err)
	}
	if final.Verdict != protocol.VerdictViolation {
		t.Error("poisoned stream closed compliant")
	}
}

func TestAccusationOverHTTP(t *testing.T) {
	srv, err := auditor.NewServer(auditor.Config{Random: rand.New(rand.NewSource(52))})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandler(srv))
	defer hs.Close()
	client := NewHTTPAuditor(hs.URL, hs.Client())

	zoneID, err := srv.Zones().Register("alice", geo.GeoCircle{Center: urbana.Offset(0, 5000), R: 100})
	if err != nil {
		t.Fatal(err)
	}

	s := newStack(t, client, srv)
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rx := s.withReceiver(t, route, 5)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
	p := s.fly(t, rx, route, nil, FlightSpec{Mode: ModeFixedRate, FixedRateHz: 1})
	if _, err := s.drone.SubmitProof(context.Background(), p); err != nil {
		t.Fatal(err)
	}

	// Zone owner accuses over HTTP: exonerated by the retained alibi.
	resp, err := client.Accuse(protocol.AccusationRequest{
		DroneID: s.drone.ID(), ZoneID: zoneID, At: t0.Add(30 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Errorf("accusation verdict = %v", resp.Verdict)
	}

	// Unknown zone over HTTP surfaces as an error.
	if _, err := client.Accuse(protocol.AccusationRequest{DroneID: s.drone.ID(), ZoneID: "zone-99", At: t0}); err == nil {
		t.Error("unknown zone accusation should error")
	}
}
