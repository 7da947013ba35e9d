// Package pipeline is the auditor's staged verification framework: every
// verification step is a Stage with one uniform signature, and a Runner
// executes stage sequences, handling naming, metrics, trace spans and
// verdict-vs-error classification in a single place.
//
// The paper's AliDrone Server is one logical pipeline (signature →
// chronology → speed feasibility → sufficiency, §IV-C); historically the
// batch submission path, the real-time stream path and the accusation
// re-check each hand-rolled their own copy of that sequence. The package
// exists so all entry points compose the same stage values and a new
// envelope or check is one Stage, not three edits.
//
// Classification contract: a stage returns
//
//   - nil — the check passed, the runner proceeds to the next stage;
//   - *Violation — the submission failed a compliance check; the runner
//     stops and reports a violation verdict (a result, not an error);
//   - any other error — an internal failure (cancelled context, storage
//     unavailable); the runner stops and surfaces the error. No verdict
//     is issued, because no check actually concluded anything.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/protocol"
)

// Violation marks a stage failure that is a verdict, not an internal
// error: the submission conclusively failed a compliance check.
type Violation struct {
	Reason string
	// InsufficientPairs carries the failed-pair count when the verdict
	// was reached by the sufficiency check (the paper's Fig 8-(c)
	// quantity); zero otherwise.
	InsufficientPairs int
}

// Error implements error so stages return violations through the uniform
// signature.
func (v *Violation) Error() string { return v.Reason }

// Violationf builds a Violation from a format string.
func Violationf(format string, args ...any) *Violation {
	return &Violation{Reason: fmt.Sprintf(format, args...)}
}

// Submission is the unit of work flowing through the pipeline. Entry
// points populate the fields their envelope provides (ciphertext, a
// decoded trace, a session key); stages progressively fill in the rest.
type Submission struct {
	// DroneID names the submitting drone (already resolved by the entry
	// point — unknown drones never enter the pipeline).
	DroneID string

	// Ciphertext is the encrypted envelope as received; the decrypt
	// stage produces Plaintext from it.
	Ciphertext []byte
	// Plaintext is the decrypted envelope; the decode stages produce
	// the typed PoA / sample trace from it.
	Plaintext []byte

	// PoA is the per-sample-signed envelope (regular and MAC modes).
	PoA poa.PoA
	// BatchSig is the single trace signature of the batch envelope, and
	// BatchEpoch the key rotation epoch it was sealed under.
	BatchSig   []byte
	BatchEpoch int
	// Keys resolves the drone's registered TEE verification keys T+ by
	// rotation epoch (the whole ring, so traces spanning a rotation
	// verify correctly).
	Keys protocol.KeyRing
	// Suite names the drone's negotiated signature suite, labelling the
	// signature-verify metrics.
	Suite string
	// MACKey is the flight-session HMAC key and SessionID the session it
	// came from (symmetric mode only); SessionClaimed records that the
	// session stage took the session for this submission (the entry
	// point gives it back when the submission ends without a verdict).
	MACKey         []byte
	SessionID      string
	SessionClaimed bool

	// Samples is the bare alibi trace the compliance stages verify.
	Samples []poa.Sample

	// Sealed is the decoded sealed-mode PoA (sealed disclosure
	// submissions only), filled by the sealed decode stage.
	Sealed privacy.SealedPoA
	// Envelope is the decoded commit-mode envelope (commit disclosure
	// submissions only), filled by the commit decode stage.
	Envelope *privacy.CommitEnvelope

	// Zones, when non-nil, overrides the zone set the sufficiency stage
	// checks against (the accusation re-check pins it to the single
	// accused zone); nil means "look up the zones near the trace".
	Zones []geo.GeoCircle
	// Report is the sufficiency report, filled by the sufficiency stage.
	Report poa.Report

	// Digest is the replay-detection digest of Plaintext; DigestClaimed
	// records that the replay stage atomically claimed it (the entry
	// point releases the claim when the submission does not commit).
	Digest        [32]byte
	DigestClaimed bool
	// DigestSeen is the claim timestamp logged with the commit.
	DigestSeen time.Time
}

// Stage is one named verification step. Run inspects and advances the
// submission; the Runner wraps it with metrics, tracing and verdict
// classification, so implementations contain only the check itself. Name
// is the metric/span label, and several stages may share one (the
// signature envelopes all report as stage="signature").
type Stage struct {
	Name string
	Run  func(ctx context.Context, sub *Submission) error
	m    *stageMetrics // resolved by Runner.Stage; a literal Stage resolves per run
}

type stageMetrics struct {
	seconds    *obs.Histogram
	pass, fail *obs.Counter
}

// Stage builds a stage whose series are resolved now against the runner's
// registry, so running it renders no name.
func (r *Runner) Stage(name string, run func(ctx context.Context, sub *Submission) error) Stage {
	return Stage{Name: name, Run: run, m: r.stageMetrics(name)}
}

func (r *Runner) stageMetrics(name string) *stageMetrics {
	reg := r.Metrics
	return &stageMetrics{
		seconds: reg.ResolveHistogram(obs.L(r.MetricStageSeconds, "stage", name), obs.DurationBuckets),
		pass:    reg.ResolveCounter(obs.L(r.MetricStageTotal, "result", "pass", "stage", name)),
		fail:    reg.ResolveCounter(obs.L(r.MetricStageTotal, "result", "fail", "stage", name)),
	}
}

// Runner executes stage sequences under uniform instrumentation: each
// stage runs inside a "verify.<stage>" trace span and a per-stage latency
// histogram with pass/fail counters, exactly once, no matter which entry
// point composed the sequence.
type Runner struct {
	// Metrics receives the per-stage series (nil disables).
	Metrics *obs.Registry
	// Tracer records the per-stage spans (nil disables).
	Tracer *otrace.Tracer
	// MetricStageSeconds and MetricStageTotal name the per-stage series.
	MetricStageSeconds string
	MetricStageTotal   string
	// OnStage, when set, is invoked before each stage runs. It exists
	// for tests that need to stall or observe the pipeline
	// deterministically; production servers leave it nil.
	OnStage func(ctx context.Context, stage string, sub *Submission)
}

// Run executes the stages in order over sub and classifies the outcome:
// all stages pass → compliant verdict; a stage returns *Violation → the
// violation verdict (nil error); anything else → the error, verdict
// withheld.
func (r *Runner) Run(ctx context.Context, sub *Submission, stages []Stage) (protocol.SubmitPoAResponse, error) {
	for _, st := range stages {
		err := r.runStage(ctx, st, sub)
		if err == nil {
			continue
		}
		var v *Violation
		if errors.As(err, &v) {
			return protocol.SubmitPoAResponse{
				Verdict:           protocol.VerdictViolation,
				Reason:            v.Reason,
				InsufficientPairs: v.InsufficientPairs,
			}, nil
		}
		return protocol.SubmitPoAResponse{}, err
	}
	return protocol.SubmitPoAResponse{Verdict: protocol.VerdictCompliant}, nil
}

// runStage executes one stage under its latency histogram, pass/fail
// counters and a "verify.<stage>" trace span, so a submission's trace
// shows the same decomposition the metrics aggregate. With neither a
// registry nor a tracer configured this reduces to st.Run(ctx, sub).
func (r *Runner) runStage(ctx context.Context, st Stage, sub *Submission) error {
	if r.OnStage != nil {
		r.OnStage(ctx, st.Name, sub)
	}
	reg := r.Metrics
	if reg == nil && r.Tracer == nil {
		return st.Run(ctx, sub)
	}
	m := st.m
	if m == nil {
		m = r.stageMetrics(st.Name)
	}
	tctx, tsp := r.Tracer.StartSpan(ctx, "verify."+st.Name)
	sp := reg.StartSpan(m.seconds)
	err := st.Run(tctx, sub)
	sp.End()
	tsp.SetError(err)
	tsp.End()
	if err == nil {
		m.pass.Inc()
	} else {
		m.fail.Inc()
	}
	return err
}
