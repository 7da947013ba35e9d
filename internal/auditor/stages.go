package auditor

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/auditor/pipeline"
	"repro/internal/geo"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/zone"
)

// This file declares the verification pipeline once: every check the
// AliDrone Server performs is a pipeline.Stage built here, and the
// ciphertext doors, the real-time stream path and the accusation re-check
// are just different sequences over the same stage values (see DESIGN.md
// "Pipeline architecture"). Adding a check means adding a stage and naming
// it in the sequences that want it — not editing hand-rolled copies of
// the pipeline.

// door is one row of the ciphertext-door table: an entry point that takes
// (drone ID, envelope encrypted to the auditor) and ends in a verdict.
// Server.enter is the one function that drives every row.
type door struct {
	// mode is the disclosure mode a drone must have registered to use the
	// door: a drone that negotiated commitments must not leak a plaintext
	// trace through a full door, and a full-mode drone cannot smuggle an
	// unjudgeable sealed proof past the pipeline.
	mode   string
	stages []pipeline.Stage
	// retainOnly marks a door whose stages cannot judge compliance
	// (sealed: positions stay hidden): passing them all answers
	// VerdictRetained, and the proof is judged only under accusation.
	retainOnly bool
	// session marks the §VII-A1a symmetric door: the envelope names a
	// flight session of the same drone, whose HMAC key the signature
	// stage checks every sample's tag with.
	session bool
}

// buildPipeline constructs the runner, the door table and the stream and
// accusation sequences. Called once from NewServer. Distinct stages may
// share a Name — the metric/span label: all signature envelopes report
// as stage="signature".
func (s *Server) buildPipeline() {
	type stages = []pipeline.Stage
	s.runner = &pipeline.Runner{
		Metrics:            s.cfg.Metrics,
		Tracer:             s.cfg.Tracer,
		MetricStageSeconds: MetricVerifyStageSeconds,
		MetricStageTotal:   MetricVerifyStageTotal,
	}
	st := s.runner.Stage

	var (
		decrypt     = st(StageDecrypt, s.stageDecrypt)
		decodePoA   = st(StageDecode, s.stageDecodePoA)
		replayClaim = st(StageReplay, s.stageReplayClaim)
		sigSamples  = st(StageSignature, s.stageSignatureSamples)
		chronology  = st(StageChronology, stageChronology)
		speed       = st(StageSpeed, s.stageSpeed)
		sufficiency = st(StageSufficiency, s.stageSufficiency)
		retain      = st(StageRetain, s.stageRetain)
		commit      = st(StageCommit, s.stageCommitDigest)
		retainDisc  = st(StageRetain, s.stageRetainDisclosure)
	)
	// The alibi core shared by every full-disclosure envelope: the paper's
	// §IV-C pipeline (chronology → speed feasibility → sufficiency) plus
	// retention for later accusations.
	alibi := stages{st(StageMinSamples, stageMinSamples), chronology, speed, sufficiency, retain}

	s.doors = map[string]door{
		DoorSubmit: {mode: poa.DisclosureFull,
			stages: slices.Concat(stages{decrypt, decodePoA, replayClaim, sigSamples}, alibi, stages{commit})},
		DoorBatch: {mode: poa.DisclosureFull,
			stages: slices.Concat(stages{decrypt, st(StageDecode, s.stageDecodeBatch), replayClaim, st(StageSignature, s.stageSignatureBatch)}, alibi, stages{commit})},
		DoorMAC: {mode: poa.DisclosureFull, session: true,
			stages: slices.Concat(stages{decrypt, decodePoA, replayClaim, st(StageSignature, s.stageSignatureMAC),
				st(StageReplay, s.stageSessionClaim)}, alibi, stages{commit})},
		// Sealed submissions retain without judging (every check the server
		// can run without positions still runs); commit submissions are
		// judged from the signed predicates alone.
		DoorSealed: {mode: poa.DisclosureSealed, retainOnly: true,
			stages: stages{decrypt, st(StageDecode, stageDecodeSealed), replayClaim,
				st(StageStructure, stageSealedStructure), retainDisc, commit}},
		DoorCommit: {mode: poa.DisclosureCommit,
			stages: stages{decrypt, st(StageDecode, stageDecodeCommit), replayClaim,
				st(StageSignature, s.stageSignatureRoot), st(StageStructure, s.stageCommitStructure),
				st(StagePredicates, s.stagePredicates), retainDisc, commit}},
	}
	s.seqStreamSig = stages{sigSamples}
	s.seqStreamPair = stages{sigSamples, chronology, speed, sufficiency}
	s.seqStreamClose = stages{retain}
	s.seqAccuse = stages{sufficiency}
}

// stageDecrypt opens the encrypted envelope with the Auditor's private
// key. Undecryptable bytes are a violation: the submitter did not encrypt
// to the Auditor, so the content is unverifiable by construction. The
// reason is one fixed string — how the envelope failed is not the
// submitter's to learn.
func (s *Server) stageDecrypt(_ context.Context, sub *pipeline.Submission) error {
	plaintext, err := sigcrypto.Open(s.encKey, sub.Ciphertext)
	if err != nil {
		return pipeline.Violationf("undecryptable PoA")
	}
	sub.Plaintext = plaintext
	return nil
}

// stageDecodePoA parses the per-sample-signed proof body (regular and MAC
// modes) and extracts the bare alibi trace.
func (s *Server) stageDecodePoA(_ context.Context, sub *pipeline.Submission) error {
	p, err := poa.DecodePoA(sub.Plaintext)
	if err != nil {
		return pipeline.Violationf("malformed PoA: %v", err)
	}
	sub.PoA = p
	sub.Samples = p.Alibi()
	return nil
}

// stageDecodeBatch parses the batch proof body (§VII-A1b): bare samples
// plus one signature over the canonical batch encoding.
func (s *Server) stageDecodeBatch(_ context.Context, sub *pipeline.Submission) error {
	batch, err := poa.DecodeBatchPoA(sub.Plaintext)
	if err != nil {
		return pipeline.Violationf("malformed batch PoA: %v", err)
	}
	sub.Samples = batch.Samples
	sub.BatchSig = batch.Sig
	sub.BatchEpoch = batch.KeyEpoch
	return nil
}

// stageReplayClaim atomically claims the plaintext digest before
// verification — claim-check-set as one step — so two concurrent
// submissions of the same bytes cannot both pass the check and both be
// accepted; the loser of the claim race is rejected here. The full, MAC
// and batch bodies have exactly one byte form (poa.DecodePoA is strict),
// so the digest names the proof, not one of its spellings. The entry
// point releases a claim whose submission does not commit, keeping
// failed submissions resubmittable.
func (s *Server) stageReplayClaim(_ context.Context, sub *pipeline.Submission) error {
	sub.Digest = sha256.Sum256(sub.Plaintext)
	sub.DigestSeen = s.cfg.Clock.Now()
	if !s.seen.claim(sub.Digest, sub.DigestSeen) {
		return &pipeline.Violation{Reason: "replayed PoA: this trace was already reported"}
	}
	sub.DigestClaimed = true
	return nil
}

// stageSessionClaim takes the MAC door's flight session for this
// submission: a session authenticates one flight, so once one PoA under
// it reaches a verdict any other is refused. It runs after the replay
// claim, so a resent copy of the judged flight still reads as a replay,
// and after the tag check, so only the holder of the session key can use
// the session up. It reports as stage="replay": it is the session's guard
// against a second use, as the digest claim is the proof's.
func (s *Server) stageSessionClaim(_ context.Context, sub *pipeline.Submission) error {
	var used bool
	ok, _ := s.sessions.update(sub.SessionID, func(r sessionRecord) (sessionRecord, error) {
		used, r.Used = r.Used, true
		return r, nil
	}) // the update never fails
	switch {
	case !ok: // swept since the entry point resolved it
		return fmt.Errorf("%w: %q", ErrUnknownSession, sub.SessionID)
	case used:
		return &pipeline.Violation{Reason: "MAC session already authenticated a flight"}
	}
	sub.SessionClaimed = true
	return nil
}

// stageSignatureSamples checks every per-sample TEE signature (goal G3)
// against the registered T+ key ring, resolving each sample's key by its
// rotation epoch and verifying through the shared VerifyBatcher so the
// checks amortise across this submission's samples and across
// admission-queued submissions.
func (s *Server) stageSignatureSamples(ctx context.Context, sub *pipeline.Submission) error {
	samples := sub.PoA.Samples
	items := make([]pipeline.VerifyItem, len(samples))
	for i, ss := range samples {
		key, err := sub.Keys.KeyFor(ss.KeyEpoch)
		if err != nil {
			return classifySigError(fmt.Errorf("sample %d: %w", i, err))
		}
		items[i] = pipeline.VerifyItem{Key: key, Msg: ss.Sample.Marshal(), Sig: ss.Sig}
	}
	idx, err := s.timedSigVerify(sub.Suite, func() (int, error) {
		return s.sigBatcher.Verify(ctx, items)
	})
	if err != nil {
		if isCtxErr(err) {
			return err
		}
		return classifySigError(fmt.Errorf("signature check failed at sample %d: %w", idx, err))
	}
	return nil
}

// stageSignatureBatch checks the single batch signature over the exact
// canonical batch encoding under the T+ key of the epoch the batch was
// sealed under.
func (s *Server) stageSignatureBatch(ctx context.Context, sub *pipeline.Submission) error {
	key, err := sub.Keys.KeyFor(sub.BatchEpoch)
	if err != nil {
		return classifySigError(fmt.Errorf("batch key: %w", err))
	}
	_, err = s.timedSigVerify(sub.Suite, func() (int, error) {
		return s.sigBatcher.Verify(ctx, []pipeline.VerifyItem{
			{Key: key, Msg: poa.MarshalBatch(sub.Samples), Sig: sub.BatchSig},
		})
	})
	if err != nil {
		if isCtxErr(err) {
			return err
		}
		return classifySigError(fmt.Errorf("batch signature verification failed: %w", err))
	}
	return nil
}

// classifySigError applies the pipeline classification contract to a
// signature-path error: typed authenticity failures (bad signature,
// unknown or expired key epoch) are violation verdicts; anything else —
// store faults, malformed batches — is an internal error and the verdict
// is withheld.
func classifySigError(err error) error {
	if protocol.IsVerdictError(err) {
		return &pipeline.Violation{Reason: err.Error()}
	}
	return err
}

// timedSigVerify wraps a signature verification under the per-suite
// latency histogram, so RSA and Ed25519 drone fleets are observable
// separately (Table II's verification axis).
func (s *Server) timedSigVerify(suite string, fn func() (int, error)) (int, error) {
	if suite == "" {
		suite = "unknown"
	}
	sp := s.cfg.Metrics.StartSpan(s.series.sigVerify.With(suite))
	idx, err := fn()
	sp.End()
	return idx, err
}

// stageSignatureMAC checks every sample's HMAC tag under the flight's
// session key. The checks are independent per sample, so they fan out
// across the worker pool exactly like the RSA path; FirstErrorCtx keeps the
// reported index deterministic (the lowest failing sample).
func (s *Server) stageSignatureMAC(ctx context.Context, sub *pipeline.Submission) error {
	samples := sub.PoA.Samples
	_, err := s.pool.FirstErrorCtx(ctx, len(samples), func(i int) error {
		if err := sigcrypto.VerifyMAC(sub.MACKey, samples[i].Sample.Marshal(), samples[i].Sig); err != nil {
			return fmt.Errorf("MAC verification failed at sample %d", i)
		}
		return nil
	})
	if err != nil {
		if isCtxErr(err) {
			return err
		}
		return &pipeline.Violation{Reason: err.Error()}
	}
	return nil
}

// stageMinSamples rejects traces that constrain nothing: a single sample
// (or none) pins the drone at isolated instants only.
func stageMinSamples(_ context.Context, sub *pipeline.Submission) error {
	if len(sub.Samples) < 2 {
		return &pipeline.Violation{Reason: "PoA has fewer than two samples"}
	}
	return nil
}

// stageChronology verifies strict time ordering of the trace.
func stageChronology(_ context.Context, sub *pipeline.Submission) error {
	if err := poa.CheckChronology(sub.Samples); err != nil {
		return &pipeline.Violation{Reason: err.Error()}
	}
	return nil
}

// stageSpeed verifies physical flyability: every consecutive pair must be
// reachable under the speed bound, or the trace itself is impossible — a
// strong forgery signal.
func (s *Server) stageSpeed(_ context.Context, sub *pipeline.Submission) error {
	if err := poa.SpeedFeasible(sub.Samples, s.cfg.VMaxMS); err != nil {
		return &pipeline.Violation{Reason: err.Error()}
	}
	return nil
}

// stageSufficiency checks the paper's eq. 1 over the zones near the trace
// (or the pinned zone set of an accusation re-check): every consecutive
// pair's travel ellipse must be disjoint from every zone.
func (s *Server) stageSufficiency(_ context.Context, sub *pipeline.Submission) error {
	zones := sub.Zones
	if zones == nil {
		zones = s.zonesForTrace(sub.Samples)
	}
	rep, err := poa.VerifySufficiency(sub.Samples, zones, s.cfg.VMaxMS, s.cfg.Mode)
	if err != nil {
		return &pipeline.Violation{Reason: err.Error()}
	}
	sub.Report = rep
	if !rep.Sufficient() {
		return &pipeline.Violation{
			Reason:            "insufficient alibi: the drone may have entered a no-fly zone",
			InsufficientPairs: rep.InsufficientPairs(),
		}
	}
	return nil
}

// stageRetain stores the verified alibi for the accusation window and
// WAL-logs it. A retention failure is an internal error, never a verdict:
// a verdict the server cannot make durable is not issued.
func (s *Server) stageRetain(ctx context.Context, sub *pipeline.Submission) error {
	return s.retain(ctx, sub.DroneID, sub.Samples)
}

// stageCommitDigest makes the replay-digest claim durable. It runs last,
// so the WAL records the accepted history only and a crashed verification
// leaves the trace resubmittable.
func (s *Server) stageCommitDigest(ctx context.Context, sub *pipeline.Submission) error {
	if !sub.DigestClaimed {
		return nil
	}
	return s.wal(ctx, recDigestClaimed, walDigest{
		Digest: hex.EncodeToString(sub.Digest[:]),
		Seen:   sub.DigestSeen,
	})
}

// stageDecodeSealed parses a sealed-mode plaintext: the JSON SealedPoA
// with clear timestamps and position ciphertexts.
func stageDecodeSealed(_ context.Context, sub *pipeline.Submission) error {
	var sp privacy.SealedPoA
	if err := json.Unmarshal(sub.Plaintext, &sp); err != nil {
		return pipeline.Violationf("malformed sealed PoA: %v", err)
	}
	sub.Sealed = sp
	return nil
}

// stageDecodeCommit parses a commit-mode plaintext: the compact binary
// envelope (Merkle root, clear timestamps, area, predicates, signature).
func stageDecodeCommit(_ context.Context, sub *pipeline.Submission) error {
	env, err := privacy.DecodeCommitEnvelope(sub.Plaintext)
	if err != nil {
		return pipeline.Violationf("malformed commit envelope: %v", err)
	}
	sub.Envelope = &env
	return nil
}

// stageSignatureRoot verifies the TEE vault signature over the commit
// envelope's canonical signing bytes under the key of the envelope's
// rotation epoch. Everything the predicate check trusts — timestamps,
// root, area, speed bound, clearances — is covered by this one signature.
func (s *Server) stageSignatureRoot(ctx context.Context, sub *pipeline.Submission) error {
	env := sub.Envelope
	key, err := sub.Keys.KeyFor(env.KeyEpoch)
	if err != nil {
		return classifySigError(fmt.Errorf("envelope key: %w", err))
	}
	_, err = s.timedSigVerify(sub.Suite, func() (int, error) {
		return s.sigBatcher.Verify(ctx, []pipeline.VerifyItem{
			{Key: key, Msg: env.SigningBytes(), Sig: env.Sig},
		})
	})
	if err != nil {
		if isCtxErr(err) {
			return err
		}
		return classifySigError(fmt.Errorf("envelope signature verification failed: %w", err))
	}
	return nil
}

// stageSealedStructure checks everything a sealed submission exposes:
// at least two entries, chronological public timestamps, and no entry
// missing its nonce, ciphertext or signature. Positions stay hidden, so
// no compliance verdict is possible here — the submission is retained
// and judged only under accusation.
func stageSealedStructure(_ context.Context, sub *pipeline.Submission) error {
	entries := sub.Sealed.Entries
	if len(entries) < 2 {
		return &pipeline.Violation{Reason: "sealed PoA has fewer than two entries"}
	}
	for i, e := range entries {
		if len(e.Nonce) == 0 || len(e.Ciphertext) == 0 || len(e.Sig) == 0 {
			return pipeline.Violationf("sealed entry %d is incomplete", i)
		}
		if i > 0 && !e.Time.After(entries[i-1].Time) {
			return &pipeline.Violation{Reason: poa.ErrNotChronological.Error()}
		}
	}
	return nil
}

// stageCommitStructure checks the signed envelope's internal consistency:
// enough samples, chronological timestamps, a well-formed root and area,
// and a speed bound at least as fast as the auditor's own — a slower
// bound would make the clearances optimistic instead of conservative.
func (s *Server) stageCommitStructure(_ context.Context, sub *pipeline.Submission) error {
	env := sub.Envelope
	if len(env.Times) < 2 {
		return &pipeline.Violation{Reason: "commit envelope has fewer than two samples"}
	}
	if len(env.Root) != 32 {
		return pipeline.Violationf("commit envelope root is %d bytes, want 32", len(env.Root))
	}
	for i := 1; i < len(env.Times); i++ {
		if !env.Times[i].After(env.Times[i-1]) {
			return &pipeline.Violation{Reason: poa.ErrNotChronological.Error()}
		}
	}
	if !env.Area.Valid() {
		return pipeline.Violationf("commit envelope area %+v is invalid", env.Area)
	}
	if env.VMaxMS < s.cfg.VMaxMS {
		return pipeline.Violationf("commit envelope speed bound %.1f m/s is below the required %.1f m/s",
			env.VMaxMS, s.cfg.VMaxMS)
	}
	return nil
}

// stagePredicates judges a commit submission from its signed clearance
// predicates: every registered zone the flight area could have reached
// must carry a predicate with positive clearance — the paper's
// conservative sufficiency test holding for every sample pair, proven
// without the auditor seeing a single position. A zone the envelope has
// no predicate for cannot be ruled out, so it is a violation, exactly as
// an insufficient pair would be on the plaintext path.
func (s *Server) stagePredicates(_ context.Context, sub *pipeline.Submission) error {
	env := sub.Envelope
	insufficient := 0
	for _, z := range zone.Circles(s.zones.QueryRect(env.Area)) {
		pred, ok := findPredicate(env.Predicates, z)
		if !ok {
			return pipeline.Violationf(
				"commit envelope lacks a predicate for the zone at (%.5f, %.5f)", z.Center.Lat, z.Center.Lon)
		}
		if !pred.Sufficient() {
			insufficient++
		}
	}
	if insufficient > 0 {
		return &pipeline.Violation{
			Reason:            "insufficient alibi: the drone may have entered a no-fly zone",
			InsufficientPairs: insufficient,
		}
	}
	return nil
}

// findPredicate locates the predicate whose zone geometry matches z
// exactly. Predicates are computed drone-side over the zone-query
// response, so an honest flight carries a bit-identical circle.
func findPredicate(preds []privacy.ZonePredicate, z geo.GeoCircle) (privacy.ZonePredicate, bool) {
	for _, p := range preds {
		if p.Zone.Center.Lat == z.Center.Lat && p.Zone.Center.Lon == z.Center.Lon && p.Zone.R == z.R {
			return p, true
		}
	}
	return privacy.ZonePredicate{}, false
}

// stageRetainDisclosure stores the sealed entries (sealed mode) or the
// signed commitment (commit mode) for the accusation window and WAL-logs
// the retention, mirroring stageRetain's durability contract.
func (s *Server) stageRetainDisclosure(ctx context.Context, sub *pipeline.Submission) error {
	rec := retainedDisclosure{
		DroneID:    sub.DroneID,
		SubmitTime: s.cfg.Clock.Now(),
	}
	if sub.Envelope != nil {
		rec.Mode = poa.DisclosureCommit
		rec.Times = sub.Envelope.Times
		rec.Root = sub.Envelope.Root
		rec.KeyEpoch = sub.Envelope.KeyEpoch
	} else {
		rec.Mode = poa.DisclosureSealed
		rec.Entries = sub.Sealed.Entries
		rec.Times = make([]time.Time, len(sub.Sealed.Entries))
		for i, e := range sub.Sealed.Entries {
			rec.Times[i] = e.Time
		}
	}
	r, _ := s.disclosures.add(rec)
	return s.wal(ctx, recDisclosureRetained, r)
}
