package auditor

import (
	"time"

	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/protocol"
)

// Operational endpoints served next to the protocol API.
const (
	// PathMetrics serves the Prometheus text exposition of the server's
	// metrics registry.
	PathMetrics = "/metrics"
	// PathHealthz is the liveness probe.
	PathHealthz = "/healthz"
	// PathReadyz is the readiness probe: 200 once the backend can serve
	// verdicts (shards recovered, cluster ring joined), 503 until then.
	PathReadyz = protocol.PathReadyz
	// PathDebugTraces dumps the span ring buffer as JSONL (when a
	// collector is mounted — see HandlerOptions and the -debug-addr flag).
	PathDebugTraces = "/debug/traces"
)

// Metric names exported by the auditor. The per-stage series mirror the
// paper's §V evaluation: what bench_test.go measures offline, a running
// server reports live (see README "Observability").
const (
	// MetricVerifyStageSeconds is a histogram of per-stage verification
	// latency, labelled stage=signature|chronology|speed|sufficiency.
	MetricVerifyStageSeconds = "alidrone_auditor_verify_stage_seconds"
	// MetricVerifyStageTotal counts stage outcomes, labelled
	// stage=... and result=pass|fail.
	MetricVerifyStageTotal = "alidrone_auditor_verify_stage_total"
	// MetricSubmissionsTotal counts PoA submissions by final verdict,
	// labelled verdict=compliant|violation.
	MetricSubmissionsTotal = "alidrone_auditor_submissions_total"
	// MetricRetainedPoAs gauges the current retention-store size.
	MetricRetainedPoAs = "alidrone_auditor_retained_poas"
	// MetricEvictedPoAsTotal counts PoAs dropped by retention expiry.
	MetricEvictedPoAsTotal = "alidrone_auditor_evicted_poas_total"
	// MetricHTTPRequestsTotal counts requests per endpoint, labelled
	// path=<endpoint path>.
	MetricHTTPRequestsTotal = "alidrone_auditor_http_requests_total"
	// MetricHTTPRequestSeconds is the per-endpoint latency histogram,
	// labelled path=<endpoint path>.
	MetricHTTPRequestSeconds = "alidrone_auditor_http_request_seconds"
	// MetricVerifyWorkers gauges the configured size of the verification
	// worker pool.
	MetricVerifyWorkers = "alidrone_auditor_verify_workers"
	// MetricVerifyWorkersBusy gauges how many pool workers are currently
	// executing a verification shard.
	MetricVerifyWorkersBusy = "alidrone_auditor_verify_workers_busy"
	// MetricExpiredNoncesTotal counts zone-query nonces dropped by TTL
	// expiry.
	MetricExpiredNoncesTotal = "alidrone_auditor_expired_nonces_total"
	// MetricExpiredDigestsTotal counts replay-detection digests dropped
	// when they aged out of the retention window.
	MetricExpiredDigestsTotal = "alidrone_auditor_expired_digests_total"
	// MetricWALErrorsTotal counts failed write-ahead-log appends and
	// compactions. Nonzero means the in-memory state has run ahead of the
	// durable state — a page-the-operator condition.
	MetricWALErrorsTotal = "alidrone_auditor_wal_errors_total"
	// MetricAdmissionInflight gauges the verification requests currently
	// admitted past the admission controller.
	MetricAdmissionInflight = "alidrone_auditor_admission_inflight"
	// MetricAdmissionQueued gauges the requests waiting in the per-drone
	// fairness queues for an in-flight slot.
	MetricAdmissionQueued = "alidrone_auditor_admission_queued"
	// MetricAdmissionShedTotal counts requests shed with ErrOverloaded
	// because both the in-flight budget and the drone's queue were full.
	MetricAdmissionShedTotal = "alidrone_auditor_admission_shed_total"
	// MetricAdmissionAdmittedTotal counts requests admitted past the
	// controller (immediately or after queueing).
	MetricAdmissionAdmittedTotal = "alidrone_auditor_admission_admitted_total"
	// MetricSigVerifySeconds is a histogram of signature-verification
	// latency per submission, labelled suite=rsa2048|ed25519|... — the
	// live counterpart of Table II's verification column, split by the
	// drone's negotiated signature suite.
	MetricSigVerifySeconds = "alidrone_auditor_sig_verify_seconds"
	// MetricKeyRotationsTotal counts accepted TEE key rotations, labelled
	// suite=....
	MetricKeyRotationsTotal = "alidrone_auditor_key_rotations_total"
	// MetricWireConnections gauges the live binary-transport connections.
	MetricWireConnections = "alidrone_auditor_wire_connections"
	// MetricWireConnectionsTotal counts connections accepted by the wire
	// listener over its lifetime.
	MetricWireConnectionsTotal = "alidrone_auditor_wire_connections_total"
	// MetricWireFramesTotal counts frames moved over the binary
	// transport, labelled dir=rx|tx. With ack coalescing, tx stays well
	// below the ack count under load.
	MetricWireFramesTotal = "alidrone_auditor_wire_frames_total"
	// MetricWireBytesTotal counts bytes moved over the binary transport,
	// labelled dir=rx|tx.
	MetricWireBytesTotal = "alidrone_auditor_wire_bytes_total"
	// MetricWireSubmissionsTotal counts PoA submissions arriving through
	// the wire door (the binary counterpart of the /v1/poa request count).
	MetricWireSubmissionsTotal = "alidrone_auditor_wire_submissions_total"
	// MetricWireAcksTotal counts submission acks sent, labelled
	// status=compliant|violation|overloaded|error.
	MetricWireAcksTotal = "alidrone_auditor_wire_acks_total"
	// MetricWireErrorsTotal counts connections torn down on protocol
	// errors (bad CRC, unknown version/type, malformed messages).
	MetricWireErrorsTotal = "alidrone_auditor_wire_errors_total"
	// MetricClusterNodes gauges the nodes in this node's current cluster
	// map (alive + suspect; dead nodes have left the ring).
	MetricClusterNodes = "alidrone_cluster_nodes"
	// MetricClusterForwardsTotal counts submissions this node forwarded to
	// the owning node because they arrived mis-routed, labelled
	// dir=out (we forwarded) | in (we executed a peer's forward).
	MetricClusterForwardsTotal = "alidrone_cluster_forwards_total"
	// MetricClusterHandoffSeconds is a histogram of shard-handoff
	// durations: exporting, streaming and importing one node's state after
	// a ring change.
	MetricClusterHandoffSeconds = "alidrone_cluster_handoff_seconds"
	// MetricVerdictLatencySeconds is the end-to-end verdict latency
	// histogram — admission wait through commit — labelled door=submit|
	// batch|mac|stream|accuse on one family and shard=<shard tag> on the
	// other, so a fleet scrape can quote p50/p99 per client door and
	// locate a slow shard.
	MetricVerdictLatencySeconds = "alidrone_auditor_verdict_latency_seconds"
	// MetricSLOPrefix prefixes the sliding-window SLO gauges
	// (<prefix>_latency_seconds{door,q}, <prefix>_shed_ratio,
	// <prefix>_window_seconds) — the recent-window counterparts of the
	// cumulative histograms above.
	MetricSLOPrefix = "alidrone_auditor_slo"
	// MetricDisclosureTotal counts accepted submissions by disclosure
	// mode, labelled mode=full|sealed|commit.
	MetricDisclosureTotal = "alidrone_auditor_disclosure_total"
	// MetricAccusationsTotal counts accusation resolutions by outcome,
	// labelled outcome=compliant|violation|no_poa|bad_reveal. A
	// disclosure-required response is pending, not an outcome; its
	// resolution is counted when the reveal settles it.
	MetricAccusationsTotal = "alidrone_auditor_accusations_total"
)

// Verdict door labels: the client entry points that end in a verdict.
const (
	DoorSubmit = "submit"
	DoorBatch  = "batch"
	DoorMAC    = "mac"
	DoorStream = "stream"
	DoorAccuse = "accuse"
	DoorSealed = "sealed"
	DoorCommit = "commit"
)

// Verification pipeline stage labels (the stage= label of the
// MetricVerifyStage* series), in pipeline order.
const (
	StageDecrypt     = "decrypt"
	StageDecode      = "decode"
	StageReplay      = "replay"
	StageSignature   = "signature"
	StageMinSamples  = "samples"
	StageChronology  = "chronology"
	StageSpeed       = "speed"
	StageSufficiency = "sufficiency"
	StageRetain      = "retain"
	StageCommit      = "commit"
	StageStructure   = "structure"
	StagePredicates  = "predicates"
)

// Metrics returns the server's metrics registry (nil when disabled).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Tracer returns the server's tracer (nil when tracing is disabled).
func (s *Server) Tracer() *otrace.Tracer { return s.cfg.Tracer }

// countVerdict records the final verdict of one PoA submission. Retained
// (sealed-mode) and disclosure-required responses count under their own
// verdict labels rather than folding into "violation": neither concludes
// anything about compliance.
func (s *Server) countVerdict(resp protocol.SubmitPoAResponse) {
	verdict := string(resp.Verdict)
	if verdict == "" {
		verdict = "violation"
	}
	s.cfg.Metrics.Counter(obs.L(MetricSubmissionsTotal, "verdict", verdict)).Inc()
}

// countDisclosure records one accepted submission's disclosure mode.
func (s *Server) countDisclosure(mode string) {
	s.cfg.Metrics.Counter(obs.L(MetricDisclosureTotal, "mode", mode)).Inc()
}

// countAccusation records one settled accusation outcome.
func (s *Server) countAccusation(outcome string) {
	s.cfg.Metrics.Counter(obs.L(MetricAccusationsTotal, "outcome", outcome)).Inc()
}

// verdictObs holds the pre-resolved verdict-latency sinks: histograms
// are looked up once at construction, not per verdict, so the hot path
// pays two histogram observes and two SLO observes — nothing else (the
// slo_observe_overhead benchmark gate holds this to ≤5%).
type verdictObs struct {
	clock obs.Clock
	door  map[string]*obs.Histogram
	shard *obs.Histogram
	label string // shard label (ShardTag, or "single" outside a Router)
	slo   *obs.SLO
}

// newVerdictObs builds the verdict sinks; nil when nothing is listening.
func newVerdictObs(cfg Config) *verdictObs {
	if cfg.Metrics == nil && cfg.SLO == nil {
		return nil
	}
	label := cfg.ShardTag
	if label == "" {
		label = "single"
	}
	v := &verdictObs{
		clock: cfg.Clock,
		door:  make(map[string]*obs.Histogram, 5),
		label: label,
		slo:   cfg.SLO,
	}
	for _, door := range []string{DoorSubmit, DoorBatch, DoorMAC, DoorStream, DoorAccuse, DoorSealed, DoorCommit} {
		v.door[door] = cfg.Metrics.Histogram(
			obs.L(MetricVerdictLatencySeconds, "door", door), obs.DurationBuckets)
	}
	v.shard = cfg.Metrics.Histogram(
		obs.L(MetricVerdictLatencySeconds, "shard", label), obs.DurationBuckets)
	return v
}

// verdictStart stamps the entry time of a verdict-producing call (zero
// when verdict observation is disabled, so the clock is never touched).
func (s *Server) verdictStart() time.Time {
	if s.verdict == nil {
		return time.Time{}
	}
	return s.verdict.clock.Now()
}

// observeVerdict records one settled verdict's end-to-end latency into
// the per-door and per-shard histograms and the SLO window.
func (s *Server) observeVerdict(door string, start time.Time) {
	v := s.verdict
	if v == nil || start.IsZero() {
		return
	}
	el := v.clock.Now().Sub(start).Seconds()
	v.door[door].Observe(el)
	v.shard.Observe(el)
	v.slo.ObserveDoor(door, el)
	v.slo.ObserveShard(v.label, el)
}
