package sampling

import (
	"fmt"
	"time"

	"repro/internal/gps"
	"repro/internal/poa"
	"repro/internal/tee"
)

// NewTEEBatchEnv builds the §VII-A1b environment: "recording" a sample
// buffers it in the TEE's secure memory instead of signing it; the flight
// ends with one SealTrace call that signs the entire trace at once. The
// SignedSample returned from Auth carries an empty Sig — authenticity
// comes from the batch signature.
func NewTEEBatchEnv(dev *tee.Device, clock *tee.SimClock, rx *gps.Receiver) Env {
	env := NewTEEEnv(dev, clock, rx)
	env.Auth = func(held time.Time) (poa.SignedSample, error) {
		resp, err := dev.Invoke(tee.GPSSamplerUUID, tee.CmdBufferSample, tee.HeldFix(held))
		if err != nil {
			return poa.SignedSample{}, fmt.Errorf("BufferSample: %w", err)
		}
		s, err := poa.UnmarshalSample(resp)
		if err != nil {
			return poa.SignedSample{}, err
		}
		return poa.SignedSample{Sample: s}, nil
	}
	return env
}

// SealTrace finishes a batch-mode flight: the TEE signs the buffered trace
// once and clears its buffer.
func SealTrace(dev *tee.Device) (poa.BatchPoA, error) {
	resp, err := dev.Invoke(tee.GPSSamplerUUID, tee.CmdSealTrace, nil)
	if err != nil {
		return poa.BatchPoA{}, fmt.Errorf("SealTrace: %w", err)
	}
	return tee.DecodeSealedTrace(resp)
}

// NewTEEMACEnv builds the §VII-A1a environment: samples are tagged with
// the TEE's ephemeral HMAC session key (established beforehand through
// CmdEstablishSessionKey) instead of RSA signatures. The tag travels in
// the SignedSample's Sig field.
func NewTEEMACEnv(dev *tee.Device, clock *tee.SimClock, rx *gps.Receiver) Env {
	env := NewTEEEnv(dev, clock, rx)
	env.Auth = func(held time.Time) (poa.SignedSample, error) {
		resp, err := dev.Invoke(tee.GPSSamplerUUID, tee.CmdGetGPSMAC, tee.HeldFix(held))
		if err != nil {
			return poa.SignedSample{}, fmt.Errorf("GetGPSMAC: %w", err)
		}
		return tee.DecodeAuthSample(resp)
	}
	return env
}
