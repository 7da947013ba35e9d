// End-to-end tracing check: one full drone mission replayed over HTTP
// must produce a single contiguous trace — the "drone.proof" root span
// with children for the TEE signing work, the HTTP submission, the
// auditor's server-side handling, each verification stage and the WAL
// commit — and the whole trace must be retrievable from the auditor's
// /debug/traces endpoint. The auditor runs at sample rate 0 throughout:
// every auditor-side span below exists only because the drone's sampling
// decision propagated over the wire (parent-based sampling).
package alidrone

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/auditor"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/operator"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/tee"
	"repro/internal/trace"
)

// spanIndex gives parent/child lookups over one trace's records.
type spanIndex struct {
	t     *testing.T
	byID  map[string]otrace.SpanRecord
	spans []otrace.SpanRecord
}

func indexSpans(t *testing.T, spans []otrace.SpanRecord) *spanIndex {
	t.Helper()
	idx := &spanIndex{t: t, byID: make(map[string]otrace.SpanRecord), spans: spans}
	for _, s := range spans {
		idx.byID[s.SpanID] = s
	}
	return idx
}

// find returns the single span with the given name, failing the test on
// zero or multiple matches.
func (idx *spanIndex) find(name string) otrace.SpanRecord {
	idx.t.Helper()
	var found []otrace.SpanRecord
	for _, s := range idx.spans {
		if s.Name == name {
			found = append(found, s)
		}
	}
	if len(found) != 1 {
		idx.t.Fatalf("span %q: found %d, want exactly 1 (trace has %d spans)", name, len(found), len(idx.spans))
	}
	return found[0]
}

// requireChild asserts that the named span's parent chain reaches
// ancestorID, and returns the span.
func (idx *spanIndex) requireChild(name, ancestorID string) otrace.SpanRecord {
	idx.t.Helper()
	s := idx.find(name)
	for p := s.Parent; p != ""; {
		if p == ancestorID {
			return s
		}
		parent, ok := idx.byID[p]
		if !ok {
			break
		}
		p = parent.Parent
	}
	idx.t.Fatalf("span %q (parent %s) does not descend from %s", name, s.Parent, ancestorID)
	return s
}

func attr(s otrace.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.K == key {
			return a.V
		}
	}
	return ""
}

func TestMissionReplayProducesContiguousTrace(t *testing.T) {
	// One shared collector stands in for a trace backend both sides
	// export to, so the cross-process trace can be asserted as a whole.
	collector := otrace.NewRingCollector(otrace.DefaultRingSize)

	st, err := storage.OpenFileStore(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := auditor.OpenServer(auditor.Config{
		Metrics: obs.NewRegistry(nil),
		Tracer:  otrace.New(otrace.Options{Sample: 0, Sink: collector}),
	}, st, "")
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandlerOpts(srv, auditor.HandlerOptions{Collector: collector}))
	defer hs.Close()

	sc, err := trace.NewAirportScenario(trace.DefaultAirportConfig(benchStart))
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform(sc.Route, 1, sigcrypto.SuiteRSA1024, nil)
	if err != nil {
		t.Fatal(err)
	}

	droneTracer := otrace.New(otrace.Options{Sample: 1, Sink: collector})
	api := operator.NewHTTPAuditor(hs.URL, nil)
	api.SetTracer(droneTracer)
	auditorPub, err := api.FetchEncryptionPub()
	if err != nil {
		t.Fatal(err)
	}
	drone, err := operator.NewDrone(api, auditorPub, platform.Device, platform.Clock,
		sigcrypto.KeySize1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	drone.SetTracer(droneTracer)
	if err := drone.Register(); err != nil {
		t.Fatal(err)
	}
	rep, err := drone.RunMission(platform.Receiver, sc.Route, operator.MissionConfig{FlightSpec: operator.FlightSpec{Mode: operator.ModeAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.Verdict != protocol.VerdictCompliant {
		t.Fatalf("mission verdict = %s (%s), want compliant", rep.Verdict.Verdict, rep.Verdict.Reason)
	}

	// The root span is the drone's proof; its trace must contain the
	// whole pipeline.
	var rootID, traceID string
	for _, s := range collector.Snapshot() {
		if s.Name == "drone.proof" {
			rootID, traceID = s.SpanID, s.TraceID
		}
	}
	if rootID == "" {
		t.Fatal("no drone.proof root span recorded")
	}
	idx := indexSpans(t, collector.Trace(traceID))

	root := idx.find("drone.proof")
	if root.Parent != "" {
		t.Errorf("drone.proof has parent %s, want root", root.Parent)
	}
	if got := attr(root, "verdict"); got != string(protocol.VerdictCompliant) {
		t.Errorf("root verdict attr = %q, want %q", got, protocol.VerdictCompliant)
	}
	idx.requireChild("tee.sign", rootID)
	client := idx.requireChild("http.client "+protocol.PathSubmitPoA, rootID)
	server := idx.requireChild("auditor "+protocol.PathSubmitPoA, client.SpanID)
	for _, stage := range []string{
		auditor.StageSignature, auditor.StageChronology, auditor.StageSpeed, auditor.StageSufficiency,
	} {
		idx.requireChild("verify."+stage, server.SpanID)
	}
	// The retained-PoA WAL commit descends from the auditor's server
	// span: the traced submission shows its durability cost.
	var walRetain bool
	for _, s := range idx.spans {
		if s.Name == "wal.append" && attr(s, "kind") == "poa-retained" {
			walRetain = true
		}
	}
	if !walRetain {
		t.Error("no wal.append span with kind=poa-retained in the trace")
	}

	// The same trace must be retrievable over HTTP from /debug/traces.
	resp, err := http.Get(hs.URL + auditor.PathDebugTraces + "?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var served []otrace.SpanRecord
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scan.Scan() {
		var rec otrace.SpanRecord
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", scan.Text(), err)
		}
		served = append(served, rec)
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if len(served) != len(idx.spans) {
		t.Fatalf("/debug/traces served %d spans, collector holds %d", len(served), len(idx.spans))
	}
	indexSpans(t, served).find("drone.proof")
}
