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
	"repro/internal/gps"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// fly is Fly under a background context, failing the test on error.
func (s *stack) fly(t *testing.T, rx *gps.Receiver, route *trace.Route, zones []geo.GeoCircle, spec FlightSpec) *Proof {
	t.Helper()
	p, err := s.drone.Fly(context.Background(), rx, zones, route.End(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBatchModeEndToEnd(t *testing.T) {
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

	s.dev.ResetStats()
	p := s.fly(t, rx, route, []geo.GeoCircle{z}, FlightSpec{Mode: ModeBatch})
	if len(p.Batch.Samples) != p.Run.PoA.Len() {
		t.Errorf("batch has %d samples, run recorded %d", len(p.Batch.Samples), p.Run.PoA.Len())
	}
	// Exactly one signature for the whole flight — the point of §VII-A1b.
	if st := s.dev.Snapshot(); st.Signs != 1 {
		t.Errorf("Signs = %d, want 1", st.Signs)
	}

	resp, err := s.drone.SubmitProof(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %v (%s)", resp.Verdict, resp.Reason)
	}
	// The verified trace is retained for accusations like any other.
	if s.srv.Status().RetainedPoAs != 1 {
		t.Errorf("retained = %d, want 1", s.srv.Status().RetainedPoAs)
	}
}

func TestBatchModeTamperedBatchRejected(t *testing.T) {
	s := newInProcessStack(t)
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rx := s.withReceiver(t, route, 5)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
	p := s.fly(t, rx, route, nil, FlightSpec{Mode: ModeBatch})

	// Move one sample: the single signature no longer covers the batch.
	p.Batch.Samples[0].Pos.Lat += 0.01
	resp, err := s.drone.SubmitProof(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Errorf("tampered batch verdict = %v, want violation", resp.Verdict)
	}
}

func TestMACModeEndToEnd(t *testing.T) {
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

	p := s.fly(t, rx, route, []geo.GeoCircle{z}, FlightSpec{Mode: ModeMAC})
	if p.SessionID == "" {
		t.Fatal("empty session id")
	}
	// No asymmetric signatures during the flight.
	if st := s.dev.Snapshot(); st.Signs != 0 || st.MACs == 0 {
		t.Errorf("stats = %+v, want MACs only", st)
	}

	resp, err := s.drone.SubmitProof(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %v (%s)", resp.Verdict, resp.Reason)
	}
}

func TestMACModeTamperedTagRejected(t *testing.T) {
	s := newInProcessStack(t)
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rx := s.withReceiver(t, route, 5)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
	p := s.fly(t, rx, route, nil, FlightSpec{Mode: ModeMAC})

	p.Run.PoA.Samples[0].Sample.Pos.Lat += 0.01
	resp, err := s.drone.SubmitProof(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Errorf("tampered MAC PoA verdict = %v, want violation", resp.Verdict)
	}
}

func TestMACModeSessionValidation(t *testing.T) {
	s := newInProcessStack(t)
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = s.withReceiver(t, route, 5)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
	twoSamples := &sampling.RunResult{PoA: poa.PoA{Samples: make([]poa.SignedSample, 2)}}

	// Unknown session.
	_, err = s.drone.SubmitProof(context.Background(), &Proof{Mode: ModeMAC, SessionID: "session-9999", Run: twoSamples})
	if !errors.Is(err, auditor.ErrUnknownSession) {
		t.Errorf("err = %v, want ErrUnknownSession", err)
	}

	// A session established by another drone cannot be used.
	s2 := newInProcessStackSharing(t, s.srv)
	rx2 := s2.withReceiver(t, route, 5)
	if err := s2.drone.Register(); err != nil {
		t.Fatal(err)
	}
	other := s2.fly(t, rx2, route, nil, FlightSpec{Mode: ModeMAC})
	if _, err := s.drone.SubmitProof(context.Background(), &Proof{Mode: ModeMAC, SessionID: other.SessionID, Run: twoSamples}); !errors.Is(err, auditor.ErrUnknownSession) {
		t.Errorf("cross-drone session err = %v, want ErrUnknownSession", err)
	}
}

func TestModesOverHTTP(t *testing.T) {
	srv, err := auditor.NewServer(auditor.Config{Random: rand.New(rand.NewSource(44))})
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

	// Batch over HTTP.
	batch := s.fly(t, rx, route, nil, FlightSpec{Mode: ModeBatch})
	resp, err := s.drone.SubmitProof(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("HTTP batch verdict = %v (%s)", resp.Verdict, resp.Reason)
	}

	// Session + MAC over HTTP, flown near a zone so the adaptive sampler
	// records a verifiable multi-sample trace.
	z := geo.GeoCircle{Center: urbana.Offset(90, 150).Offset(0, 60), R: 30}
	if _, err := srv.Zones().Register("alice", z); err != nil {
		t.Fatal(err)
	}
	mac := s.fly(t, rx, route, []geo.GeoCircle{z}, FlightSpec{Mode: ModeMAC})
	if mac.Run.PoA.Len() < 3 {
		t.Fatalf("MAC flight near a zone recorded %d samples", mac.Run.PoA.Len())
	}
	mresp, err := s.drone.SubmitProof(context.Background(), mac)
	if err != nil {
		t.Fatal(err)
	}
	if mresp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("HTTP MAC verdict = %v (%s)", mresp.Verdict, mresp.Reason)
	}
}

// newInProcessStackSharing builds a second drone against an existing
// auditor.
func newInProcessStackSharing(t *testing.T, srv *auditor.Server) *stack {
	t.Helper()
	return newStack(t, srv, srv)
}

func TestModeNamesRoundTrip(t *testing.T) {
	names := ModeNames()
	if len(names) != 7 {
		t.Fatalf("ModeNames = %v, want seven modes", names)
	}
	for i, name := range names {
		m, err := ParseMode(name)
		if err != nil || m != SamplingMode(i+1) || m.String() != name {
			t.Errorf("ParseMode(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Error("unknown mode parsed")
	}
	if got := SamplingMode(0).String(); got != "adaptive" {
		t.Errorf("zero mode = %q, want adaptive", got)
	}
	if got := SamplingMode(99).String(); got != "mode-99" {
		t.Errorf("unknown mode = %q", got)
	}
	for m, want := range map[SamplingMode]string{ModeAdaptive: "", ModeSealed: poa.DisclosureSealed, ModeCommit: poa.DisclosureCommit, 99: ""} {
		if got := m.Disclosure(); got != want {
			t.Errorf("%v.Disclosure() = %q, want %q", m, got, want)
		}
	}
}

// TestNamedFlightEntryPoints drives the per-mode entry points kept beside
// Fly and SubmitProof for the repository benchmark (FlyAdaptive,
// FlyCommit, FlyAdaptiveStreaming, EncryptPoA, Submit, SubmitCommitPoA)
// end to end.
func TestNamedFlightEntryPoints(t *testing.T) {
	for _, m := range []SamplingMode{ModeAdaptive, ModeStreaming, ModeCommit} {
		s, route, _ := missionFixture(t)
		rx := s.withReceiver(t, route, 5)
		s.registerFor(t, m)
		zones := []geo.GeoCircle{{Center: urbana.Offset(0, 1000), R: 100}}
		var resp protocol.SubmitPoAResponse
		var samples int
		switch m {
		case ModeAdaptive:
			run, err := s.drone.FlyAdaptive(rx, zones, route.End())
			if err != nil {
				t.Fatal(err)
			}
			ct, err := s.drone.EncryptPoA(run.PoA)
			if err != nil {
				t.Fatal(err)
			}
			samples = run.PoA.Len()
			resp, err = s.drone.Submit(ct)
			if err != nil {
				t.Fatal(err)
			}
		case ModeStreaming:
			res, err := s.drone.FlyAdaptiveStreaming(rx, zones, route.End())
			if err != nil {
				t.Fatal(err)
			}
			if res.ViolationAt != -1 {
				t.Errorf("clean stream flagged sample %d", res.ViolationAt)
			}
			samples, resp = res.Run.PoA.Len(), res.Final
		case ModeCommit:
			env, run, err := s.drone.FlyCommit(rx, zones, route.End())
			if err != nil {
				t.Fatal(err)
			}
			samples = run.PoA.Len()
			resp, err = s.drone.SubmitCommitPoA(env)
			if err != nil {
				t.Fatal(err)
			}
		}
		if samples < 2 || resp.Verdict != protocol.VerdictCompliant {
			t.Errorf("%v: %d samples, verdict %v (%s)", m, samples, resp.Verdict, resp.Reason)
		}
	}
}
