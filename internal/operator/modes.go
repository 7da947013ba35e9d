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
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/zone"
)

// ErrModesUnsupported is returned when the configured auditor API does not
// implement the §VII-A1 alternative-envelope endpoints.
var ErrModesUnsupported = errors.New("operator: auditor does not support alternative PoA modes")

// modesAPI returns the extended API surface when available.
func (d *Drone) modesAPI() (protocol.ModesAPI, error) {
	return d.modesAPICtx(context.Background())
}

// modesAPICtx returns the extended API surface bound to ctx when the
// transport supports context binding.
func (d *Drone) modesAPICtx(ctx context.Context) (protocol.ModesAPI, error) {
	m, ok := protocol.BindContext(ctx, d.api).(protocol.ModesAPI)
	if !ok {
		return nil, ErrModesUnsupported
	}
	return m, nil
}

// FlyAdaptiveBatch runs the adaptive sampler in batch mode (§VII-A1b):
// samples are buffered in secure memory and the whole trace is signed once
// at the end of the flight.
func (d *Drone) FlyAdaptiveBatch(rx *gps.Receiver, zones []geo.GeoCircle, until time.Time) (poa.BatchPoA, *sampling.RunResult, error) {
	if d.id == "" {
		return poa.BatchPoA{}, nil, ErrNotRegistered
	}
	a := &sampling.Adaptive{
		Env:     sampling.NewTEEBatchEnv(d.dev, d.clock, rx),
		Index:   zone.NewIndex(zones, 0),
		VMaxMS:  geo.MaxDroneSpeedMPS,
		Metrics: d.metrics,
	}
	res, err := a.Run(until)
	if err != nil {
		return poa.BatchPoA{}, nil, fmt.Errorf("batch flight: %w", err)
	}
	batch, err := sampling.SealTrace(d.dev)
	if err != nil {
		return poa.BatchPoA{}, nil, err
	}
	return batch, res, nil
}

// SubmitBatchPoA encrypts and submits a batch-signed trace.
func (d *Drone) SubmitBatchPoA(batch poa.BatchPoA) (protocol.SubmitPoAResponse, error) {
	return d.SubmitBatchPoACtx(context.Background(), batch)
}

// SubmitBatchPoACtx is SubmitBatchPoA under a caller context.
func (d *Drone) SubmitBatchPoACtx(ctx context.Context, batch poa.BatchPoA) (protocol.SubmitPoAResponse, error) {
	if d.id == "" {
		return protocol.SubmitPoAResponse{}, ErrNotRegistered
	}
	m, err := d.modesAPICtx(ctx)
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	plaintext, err := json.Marshal(batch)
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("marshal batch PoA: %w", err)
	}
	ct, err := sigcrypto.Seal(d.random, d.auditorPub, plaintext)
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("encrypt batch PoA: %w", err)
	}
	resp, err := m.SubmitBatchPoA(protocol.SubmitBatchPoARequest{DroneID: d.id, EncryptedBatch: ct})
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("submit batch PoA: %w", err)
	}
	return resp, nil
}

// StartSession establishes a §VII-A1a symmetric flight session: the TEE
// generates an ephemeral HMAC key, wraps it to the Auditor, and the drone
// forwards the wrapped key. Returns the session ID to submit under.
func (d *Drone) StartSession() (string, error) {
	if d.id == "" {
		return "", ErrNotRegistered
	}
	m, err := d.modesAPI()
	if err != nil {
		return "", err
	}
	pubStr, err := sigcrypto.MarshalPublicKey(d.auditorPub)
	if err != nil {
		return "", fmt.Errorf("marshal auditor key: %w", err)
	}
	wrapped, err := d.dev.Invoke(tee.GPSSamplerUUID, tee.CmdEstablishSessionKey, []byte(pubStr))
	if err != nil {
		return "", fmt.Errorf("establish session key: %w", err)
	}
	resp, err := m.StartSession(protocol.StartSessionRequest{DroneID: d.id, WrappedKey: wrapped})
	if err != nil {
		return "", fmt.Errorf("start session: %w", err)
	}
	return resp.SessionID, nil
}

// FlyAdaptiveMAC runs the adaptive sampler in symmetric mode; StartSession
// must have succeeded first.
func (d *Drone) FlyAdaptiveMAC(rx *gps.Receiver, zones []geo.GeoCircle, until time.Time) (*sampling.RunResult, error) {
	if d.id == "" {
		return nil, ErrNotRegistered
	}
	a := &sampling.Adaptive{
		Env:     sampling.NewTEEMACEnv(d.dev, d.clock, rx),
		Index:   zone.NewIndex(zones, 0),
		VMaxMS:  geo.MaxDroneSpeedMPS,
		Metrics: d.metrics,
	}
	res, err := a.Run(until)
	if err != nil {
		return nil, fmt.Errorf("mac flight: %w", err)
	}
	return res, nil
}

// FlyFixedRateMAC runs the fix-rate baseline in symmetric mode.
func (d *Drone) FlyFixedRateMAC(rx *gps.Receiver, rateHz float64, until time.Time) (*sampling.RunResult, error) {
	if d.id == "" {
		return nil, ErrNotRegistered
	}
	f := &sampling.FixedRate{Env: sampling.NewTEEMACEnv(d.dev, d.clock, rx), RateHz: rateHz, Metrics: d.metrics}
	res, err := f.Run(until)
	if err != nil {
		return nil, fmt.Errorf("mac fixed-rate flight: %w", err)
	}
	return res, nil
}

// SubmitMACPoA encrypts and submits a symmetric-mode PoA under a session.
func (d *Drone) SubmitMACPoA(sessionID string, p poa.PoA) (protocol.SubmitPoAResponse, error) {
	return d.SubmitMACPoACtx(context.Background(), sessionID, p)
}

// SubmitMACPoACtx is SubmitMACPoA under a caller context.
func (d *Drone) SubmitMACPoACtx(ctx context.Context, sessionID string, p poa.PoA) (protocol.SubmitPoAResponse, error) {
	if d.id == "" {
		return protocol.SubmitPoAResponse{}, ErrNotRegistered
	}
	m, err := d.modesAPICtx(ctx)
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	ct, err := d.EncryptPoA(p)
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	resp, err := m.SubmitMACPoA(protocol.SubmitMACPoARequest{
		DroneID: d.id, SessionID: sessionID, EncryptedPoA: ct,
	})
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("submit mac PoA: %w", err)
	}
	return resp, nil
}
