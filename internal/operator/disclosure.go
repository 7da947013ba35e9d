package operator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/zone"
)

// ErrDisclosureUnsupported is returned when the configured auditor API
// does not implement the disclosure-mode endpoints.
var ErrDisclosureUnsupported = errors.New("operator: auditor does not support disclosure modes")

// ErrNoSecrets is returned when a selective-disclosure challenge arrives
// and no retained flight material can answer it.
var ErrNoSecrets = errors.New("operator: no retained disclosure material for this challenge")

// DisclosureSecrets is the client-retained material of one sealed or
// commit flight: everything needed to answer a selective-disclosure
// challenge without the Auditor ever holding a position. The sealed
// entries stay on the operator in commit mode (the Auditor keeps only
// the signed root); in sealed mode the Auditor retained the entries and
// only the one-time keys live here.
type DisclosureSecrets struct {
	Mode   string
	Sealed privacy.SealedPoA
	Keys   [][]byte
}

// Answer builds the reveal for one challenge: the two one-time keys of
// the spanning pair, plus — for a commit challenge — the two sealed
// entries and their Merkle authentication paths. Nothing outside the
// pair leaves the operator.
func (ds *DisclosureSecrets) Answer(ch protocol.DisclosureChallenge) (protocol.RevealRequest, error) {
	p := ch.PairIndex
	if ds == nil || p < 0 || p+1 >= len(ds.Keys) {
		return protocol.RevealRequest{}, ErrNoSecrets
	}
	req := protocol.RevealRequest{
		DroneID:     ch.DroneID,
		ChallengeID: ch.ChallengeID,
		Keys:        [][]byte{ds.Keys[p], ds.Keys[p+1]},
	}
	if ch.Mode != poa.DisclosureCommit {
		return req, nil
	}
	if p+1 >= len(ds.Sealed.Entries) {
		return protocol.RevealRequest{}, ErrNoSecrets
	}
	tree, err := ds.Sealed.MerkleTree()
	if err != nil {
		return protocol.RevealRequest{}, fmt.Errorf("rebuild commitment tree: %w", err)
	}
	for i := 0; i < 2; i++ {
		proof, err := tree.Proof(p + i)
		if err != nil {
			return protocol.RevealRequest{}, fmt.Errorf("prove leaf %d: %w", p+i, err)
		}
		req.Entries = append(req.Entries, ds.Sealed.Entries[p+i])
		req.Proofs = append(req.Proofs, poa.EncodeMerkleProof(proof))
	}
	return req, nil
}

// Secrets returns the retained material of the most recent sealed or
// commit flight (nil before any).
func (d *Drone) Secrets() *DisclosureSecrets { return d.secrets }

// disclosureAPICtx returns the disclosure API surface bound to ctx when
// the transport supports it.
func (d *Drone) disclosureAPICtx(ctx context.Context) (protocol.DisclosureAPI, error) {
	a, ok := protocol.BindContext(ctx, d.api).(protocol.DisclosureAPI)
	if !ok {
		return nil, ErrDisclosureUnsupported
	}
	return a, nil
}

// FlySealed runs an adaptive flight and seals the resulting PoA under
// one-time keys (paper §VII-B3): the Auditor will see clear timestamps
// and signed ciphertexts, never positions. The keys are retained on the
// drone for accusation-time reveals.
func (d *Drone) FlySealed(rx *gps.Receiver, zones []geo.GeoCircle, until time.Time) (privacy.SealedPoA, *sampling.RunResult, error) {
	run, err := d.FlyAdaptive(rx, zones, until)
	if err != nil {
		return privacy.SealedPoA{}, nil, err
	}
	sealed, ring, err := privacy.Seal(run.PoA, d.random)
	if err != nil {
		return privacy.SealedPoA{}, nil, fmt.Errorf("seal PoA: %w", err)
	}
	keys := make([][]byte, ring.Len())
	for i := range keys {
		if keys[i], err = ring.Reveal(i); err != nil {
			return privacy.SealedPoA{}, nil, err
		}
	}
	d.secrets = &DisclosureSecrets{Mode: poa.DisclosureSealed, Sealed: sealed, Keys: keys}
	return sealed, run, nil
}

// FlyCommit runs a buffered flight and closes it with the TEE's
// commit-trace command: the TA signs each sample, seals the trace, and
// signs the Merkle-root envelope with the zone clearance predicates.
// Only the envelope ever leaves the drone at submission time.
func (d *Drone) FlyCommit(rx *gps.Receiver, zones []geo.GeoCircle, until time.Time) (privacy.CommitEnvelope, *sampling.RunResult, error) {
	if d.id == "" {
		return privacy.CommitEnvelope{}, nil, ErrNotRegistered
	}
	a := &sampling.Adaptive{
		Env:     sampling.NewTEEBatchEnv(d.dev, d.clock, rx),
		Index:   zone.NewIndex(zones, 0),
		VMaxMS:  geo.MaxDroneSpeedMPS,
		Metrics: d.metrics,
	}
	run, err := a.Run(until)
	if err != nil {
		return privacy.CommitEnvelope{}, nil, fmt.Errorf("commit flight: %w", err)
	}
	reqBytes, err := json.Marshal(tee.CommitTraceRequest{Zones: zones, VMaxMS: geo.MaxDroneSpeedMPS})
	if err != nil {
		return privacy.CommitEnvelope{}, nil, err
	}
	raw, err := d.dev.Invoke(tee.GPSSamplerUUID, tee.CmdCommitTrace, reqBytes)
	if err != nil {
		return privacy.CommitEnvelope{}, nil, fmt.Errorf("tee commit trace: %w", err)
	}
	var res tee.CommitTraceResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return privacy.CommitEnvelope{}, nil, fmt.Errorf("decode commit result: %w", err)
	}
	d.secrets = &DisclosureSecrets{Mode: poa.DisclosureCommit, Sealed: res.Sealed, Keys: res.Keys}
	return res.Envelope, run, nil
}

// SubmitSealedPoA encrypts and submits a sealed PoA.
func (d *Drone) SubmitSealedPoA(sealed privacy.SealedPoA) (protocol.SubmitPoAResponse, error) {
	return d.SubmitSealedPoACtx(context.Background(), sealed)
}

// SubmitSealedPoACtx is SubmitSealedPoA under a caller context.
func (d *Drone) SubmitSealedPoACtx(ctx context.Context, sealed privacy.SealedPoA) (protocol.SubmitPoAResponse, error) {
	if d.id == "" {
		return protocol.SubmitPoAResponse{}, ErrNotRegistered
	}
	a, err := d.disclosureAPICtx(ctx)
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	plaintext, err := json.Marshal(sealed)
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("marshal sealed PoA: %w", err)
	}
	ct, err := sigcrypto.Seal(d.random, d.auditorPub, plaintext)
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("encrypt sealed PoA: %w", err)
	}
	resp, err := a.SubmitSealedPoA(protocol.SubmitSealedPoARequest{DroneID: d.id, EncryptedPoA: ct})
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("submit sealed PoA: %w", err)
	}
	return resp, nil
}

// SubmitCommitPoA encrypts and submits a commit envelope.
func (d *Drone) SubmitCommitPoA(env privacy.CommitEnvelope) (protocol.SubmitPoAResponse, error) {
	return d.SubmitCommitPoACtx(context.Background(), env)
}

// SubmitCommitPoACtx is SubmitCommitPoA under a caller context. The
// payload is the compact binary envelope — root, timestamps, predicates —
// which is why commit mode's bytes-on-wire stay a small fraction of a
// full submission.
func (d *Drone) SubmitCommitPoACtx(ctx context.Context, env privacy.CommitEnvelope) (protocol.SubmitPoAResponse, error) {
	if d.id == "" {
		return protocol.SubmitPoAResponse{}, ErrNotRegistered
	}
	a, err := d.disclosureAPICtx(ctx)
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	ct, err := sigcrypto.Seal(d.random, d.auditorPub, privacy.EncodeCommitEnvelope(env))
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("encrypt commit envelope: %w", err)
	}
	resp, err := a.SubmitCommitPoA(protocol.SubmitCommitPoARequest{DroneID: d.id, EncryptedEnvelope: ct})
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("submit commit PoA: %w", err)
	}
	return resp, nil
}

// RevealForChallenge answers a selective-disclosure challenge from the
// retained material of the most recent sealed/commit flight: exactly the
// two samples spanning the accused instant are opened, nothing else.
func (d *Drone) RevealForChallenge(ch protocol.DisclosureChallenge) (protocol.SubmitPoAResponse, error) {
	return d.RevealForChallengeCtx(context.Background(), ch)
}

// RevealForChallengeCtx is RevealForChallenge under a caller context.
func (d *Drone) RevealForChallengeCtx(ctx context.Context, ch protocol.DisclosureChallenge) (protocol.SubmitPoAResponse, error) {
	if d.id == "" {
		return protocol.SubmitPoAResponse{}, ErrNotRegistered
	}
	a, err := d.disclosureAPICtx(ctx)
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	req, err := d.secrets.Answer(ch)
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	req.DroneID = d.id
	resp, err := a.Reveal(req)
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("reveal: %w", err)
	}
	return resp, nil
}
