package operator

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/tee"
)

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
// pair leaves the operator, and nothing at all unless the challenge is
// for this material: same mode, and the pair's timestamps span the
// accused instant (a challenge on an earlier flight must not open this
// one's pair of the same index).
func (ds *DisclosureSecrets) Answer(ch protocol.DisclosureChallenge) (protocol.RevealRequest, error) {
	p := ch.PairIndex
	if ds == nil || ch.Mode != ds.Mode || p < 0 || p+1 >= len(ds.Keys) || p+1 >= len(ds.Sealed.Entries) ||
		ch.At.Before(ds.Sealed.Entries[p].Time) || ch.At.After(ds.Sealed.Entries[p+1].Time) {
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

// sealPositions seals the flown PoA under one-time keys (paper §VII-B3):
// the Auditor will see clear timestamps and signed ciphertexts, never
// positions. The keys are retained on the drone for accusation-time
// reveals.
func sealPositions(d *Drone, p *Proof, _ []geo.GeoCircle) error {
	sealed, ring, err := privacy.Seal(p.Run.PoA, d.random)
	if err != nil {
		return fmt.Errorf("seal PoA: %w", err)
	}
	keys := make([][]byte, ring.Len())
	for i := range keys {
		if keys[i], err = ring.Reveal(i); err != nil {
			return err
		}
	}
	p.Sealed = sealed
	d.secrets = &DisclosureSecrets{Mode: poa.DisclosureSealed, Sealed: sealed, Keys: keys}
	return nil
}

// commitTrace closes a buffered flight with the TEE's commit-trace
// command: the TA signs each sample, seals the trace, and signs the
// Merkle-root envelope with the zone clearance predicates. Only the
// envelope ever leaves the drone at submission time.
func commitTrace(d *Drone, p *Proof, zones []geo.GeoCircle) error {
	raw, err := d.dev.Invoke(tee.GPSSamplerUUID, tee.CmdCommitTrace, tee.EncodeCommitTraceRequest(zones, geo.MaxDroneSpeedMPS))
	if err != nil {
		return fmt.Errorf("tee commit trace: %w", err)
	}
	env, sealed, keys, err := tee.DecodeCommitTraceResult(raw)
	if err != nil {
		return fmt.Errorf("decode commit result: %w", err)
	}
	p.Commit = env
	d.secrets = &DisclosureSecrets{Mode: poa.DisclosureCommit, Sealed: sealed, Keys: keys}
	return nil
}

// RevealForChallengeCtx answers a selective-disclosure challenge from the
// retained material of the most recent sealed/commit flight: exactly the
// two samples spanning the accused instant are opened, nothing else.
func (d *Drone) RevealForChallengeCtx(ctx context.Context, ch protocol.DisclosureChallenge) (protocol.SubmitPoAResponse, error) {
	if d.id == "" {
		return protocol.SubmitPoAResponse{}, ErrNotRegistered
	}
	a, ok := protocol.BindContext(ctx, d.api).(protocol.DisclosureAPI)
	if !ok {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: reveal on %T", ErrDoorUnsupported, d.api)
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
