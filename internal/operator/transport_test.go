package operator

import (
	"context"
	"errors"
	"fmt"
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
	"repro/internal/sigcrypto"
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

// clusterTransport is the HTTP client talking to node 0 of a two-node
// cluster: the drones whose IDs the ring places on node 1 reach it through
// node 0's single-hop forward. reg is node 0's metrics registry.
func clusterTransport(t *testing.T) (transport, *obs.Registry) {
	key, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(62)), sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	var (
		nodes []cluster.Node
		lis   []net.Listener
	)
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lis = append(lis, l)
		nodes = append(nodes, cluster.Node{ID: fmt.Sprintf("node-%d", i), Addr: l.Addr().String()})
	}
	var routers []*auditor.Router
	for i := range nodes {
		r, err := auditor.NewRouter(auditor.RouterConfig{
			Self:  nodes[i],
			Seeds: nodes,
			Server: auditor.Config{
				Random:        rand.New(rand.NewSource(61 + int64(i))),
				Metrics:       obs.NewRegistry(nil),
				EncryptionKey: key,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &httptest.Server{Listener: lis[i], Config: &http.Server{Handler: auditor.NewHandler(r)}}
		hs.Start()
		t.Cleanup(func() {
			hs.Close()
			r.Close()
		})
		routers = append(routers, r)
	}
	c := NewHTTPAuditor("http://"+nodes[0].Addr, nil)
	c.SetRetryPolicy(RetryPolicy{Max: 2, Backoff: 10 * time.Millisecond})
	return transport{c, routers[0].Shard(0)}, routers[0].Metrics()
}

// TestMissionModesOverTransports flies every mode through each client the
// drone ships with: HTTP, HTTP with submissions on the binary wire, and
// HTTP against one node of a two-node cluster, which forwards the calls of
// the drones the other node owns. Every mission rotates the TEE key first
// where its mode rotates, reaches the verdict it reaches in process, and
// leaves one drone.proof trace with a tee.sign child for every mode but
// streaming.
func TestMissionModesOverTransports(t *testing.T) {
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var clusterReg *obs.Registry
	for _, tc := range []struct {
		name string
		dial func(*testing.T) transport
	}{
		{"http", httpTransport},
		{"wire", wireTransport},
		{"cluster", func(t *testing.T) (tr transport) {
			tr, clusterReg = clusterTransport(t)
			return tr
		}},
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
		})
	}
	if got := clusterReg.Counter(obs.L(auditor.MetricClusterForwardsTotal, "dir", "out")).Value(); got == 0 {
		t.Error("the cluster row forwarded nothing: every drone landed on the node the client talks to")
	}
}

// TestFetchClusterStatus: any node of a cluster answers for the fleet; a
// standalone auditor serves no /cluster/* door.
func TestFetchClusterStatus(t *testing.T) {
	tr, _ := clusterTransport(t)
	st, err := FetchClusterStatus(nil, tr.api.(*HTTPAuditor).base)
	if err != nil || len(st.Nodes) != 2 {
		t.Errorf("cluster status = %+v, %v; want two nodes", st, err)
	}
	_, err = FetchClusterStatus(nil, httpTransport(t).api.(*HTTPAuditor).base)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("standalone cluster status err = %v, want HTTP 404", err)
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
