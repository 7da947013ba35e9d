package operator

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/auditor"
	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// transport is one drone-side client over a fresh auditor; srv is the
// shard the drone's records land on.
type transport struct {
	api protocol.API
	srv *auditor.Server
}

func httpTransport(t *testing.T) transport {
	srv, err := auditor.NewServer(auditor.Config{Random: rand.New(rand.NewSource(60))})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandler(srv))
	t.Cleanup(hs.Close)
	return transport{NewHTTPAuditor(hs.URL, hs.Client()), srv}
}

func wireTransport(t *testing.T) transport {
	h := httpTransport(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := auditor.NewWireServer(h.srv, auditor.WireOptions{})
	go func() { _ = ws.Serve(lis) }()
	t.Cleanup(func() { ws.Close() })
	wa := NewWireAuditor(h.api.(*HTTPAuditor), lis.Addr().String(), WireClientOptions{BatchSize: 1})
	t.Cleanup(func() { wa.Close() })
	return transport{wa, h.srv}
}

// clusterTransport is the routing client over a one-node cluster.
func clusterTransport(t *testing.T) transport {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := auditor.NewRouter(auditor.RouterConfig{
		Self:   cluster.Node{ID: "solo", Addr: lis.Addr().String()},
		Server: auditor.Config{Random: rand.New(rand.NewSource(61))},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &httptest.Server{Listener: lis, Config: &http.Server{Handler: auditor.NewHandler(r)}}
	hs.Start()
	t.Cleanup(func() {
		hs.Close()
		r.Close()
	})
	c := NewClusterAuditor([]string{hs.URL}, hs.Client())
	c.SetRetryPolicy(RetryPolicy{})
	return transport{c, r.Shard(0)}
}

// TestMissionModesOverTransports flies every mode through each client the
// drone ships with: HTTP, HTTP with submissions on the binary wire, and
// the cluster-routing client over a one-node cluster. A transport that
// lacks a mode's door is refused before any call; every other mission
// rotates the TEE key first where its mode rotates, reaches the verdict
// it reaches in process, and leaves one drone.proof trace with a tee.sign
// child for every mode but streaming.
func TestMissionModesOverTransports(t *testing.T) {
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		dial       func(*testing.T) transport
		disclosure bool // the transport carries the sealed, commit and reveal doors
	}{
		{"http", httpTransport, true},
		{"wire", wireTransport, true},
		{"cluster", clusterTransport, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.dial(t)
			if _, err := tr.api.RegisterZone(protocol.RegisterZoneRequest{
				Owner: "alice", Zone: geo.GeoCircle{Center: urbana.Offset(0, 1000), R: 100},
			}); err != nil {
				t.Fatal(err)
			}
			for m := ModeAdaptive; int(m) < len(modeTable); m++ {
				s := newSeededStack(t, tr.api, tr.srv, int64(m))
				rx := s.withReceiver(t, route, 5)
				spans := otrace.NewRingCollector(64)
				s.drone.SetTracer(otrace.New(otrace.Options{Sample: 1, Sink: spans}))
				s.drone.SetMetrics(obs.NewRegistry(nil))
				s.registerFor(t, m)
				if got := s.drone.Disclosure(); got != m.Disclosure() && m.Disclosure() != "" {
					t.Errorf("%v: registered disclosure %q", m, got)
				}
				cfg := MissionConfig{FlightSpec: FlightSpec{Mode: m, FixedRateHz: 2}, RotateEvery: time.Second}
				rep, err := s.drone.RunMission(rx, route, cfg)
				if m.Disclosure() != "" && !tc.disclosure {
					if !errors.Is(err, ErrDoorUnsupported) {
						t.Errorf("%v: err = %v, want ErrDoorUnsupported", m, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%v: %v", m, err)
				}
				want := protocol.VerdictCompliant
				if m == ModeSealed {
					want = protocol.VerdictRetained
				}
				if rep.Verdict.Verdict != want {
					t.Errorf("%v: verdict = %v (%s), want %v", m, rep.Verdict.Verdict, rep.Verdict.Reason, want)
				}
				row, _ := m.row()
				wantEpoch := 0
				if row.rotates {
					wantEpoch = 1
				}
				if epoch := s.dev.Vault().Epoch(); epoch != wantEpoch {
					t.Errorf("%v: TEE key epoch %d after the mission, want %d", m, epoch, wantEpoch)
				}
				checkProofTrace(t, m, spans.Snapshot())
				if m.Disclosure() != "" {
					revealOverHTTP(t, s, tr.api, rep.Zones[0].ID)
				}
			}
			if c, ok := tr.api.(*ClusterAuditor); ok {
				st, err := c.ClusterStatus()
				if err != nil {
					t.Fatal(err)
				}
				if len(st.Nodes) != 1 || c.MapVersion() == 0 {
					t.Errorf("cluster status = %+v (map v%d), want one node", st, c.MapVersion())
				}
			}
		})
	}
}

// checkProofTrace asserts the mission's span shape: a drone.proof root
// naming the mode, with a tee.sign child unless the mode streams.
func checkProofTrace(t *testing.T, m SamplingMode, spans []otrace.SpanRecord) {
	t.Helper()
	var root *otrace.SpanRecord
	for i := range spans {
		if spans[i].Name == "drone.proof" {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatalf("%v: no drone.proof span", m)
	}
	if mode := attr(root, "mode"); mode != m.String() {
		t.Errorf("%v: drone.proof mode = %q", m, mode)
	}
	teeSpans := 0
	for _, sp := range spans {
		if sp.Name == "tee.sign" && sp.Parent == root.SpanID {
			teeSpans++
		}
	}
	want := 1
	if m == ModeStreaming {
		want = 0
	}
	if teeSpans != want {
		t.Errorf("%v: %d tee.sign children of drone.proof, want %d", m, teeSpans, want)
	}
}

func attr(sp *otrace.SpanRecord, k string) string {
	for _, a := range sp.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// revealOverHTTP accuses the stack's drone over the auditor's HTTP door
// and settles the challenge with the drone's reveal.
func revealOverHTTP(t *testing.T, s *stack, api protocol.API, zoneID string) {
	t.Helper()
	var h *HTTPAuditor
	switch c := api.(type) {
	case *HTTPAuditor:
		h = c
	case *WireAuditor:
		h = c.HTTPAuditor
	}
	acc, err := h.Accuse(protocol.AccusationRequest{DroneID: s.drone.ID(), ZoneID: zoneID, At: t0.Add(30 * time.Second)})
	if err != nil || acc.Challenge == nil {
		t.Fatalf("accusation: %v / %+v", err, acc)
	}
	if s.drone.Secrets() == nil {
		t.Fatal("hiding flight left no disclosure secrets")
	}
	final, err := s.drone.RevealForChallengeCtx(context.Background(), *acc.Challenge)
	if err != nil || final.Verdict != protocol.VerdictCompliant {
		t.Errorf("reveal: %v / %+v", err, final)
	}
}
