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

// SamplingMode selects the Proof-of-Alibi envelope for a flight. The zero
// mode is ModeAdaptive.
type SamplingMode int

// Sampling modes.
const (
	// ModeAdaptive is the paper's production configuration: per-sample
	// TEE signatures, adaptive rate.
	ModeAdaptive SamplingMode = iota + 1
	// ModeFixedRate uses the fix-rate baseline.
	ModeFixedRate
	// ModeBatch buffers in the TEE and signs the trace once (§VII-A1b).
	ModeBatch
	// ModeMAC establishes a symmetric session first (§VII-A1a).
	ModeMAC
	// ModeStreaming transmits samples in real time.
	ModeStreaming
	// ModeSealed flies a normal adaptive flight, then seals the PoA under
	// one-time keys before submission (paper §VII-B3): the Auditor retains
	// ciphertexts and judges only under accusation.
	ModeSealed
	// ModeCommit buffers in the TEE and submits only the signed Merkle
	// commitment envelope; positions never leave the drone unless a
	// selective-disclosure challenge opens a spanning pair.
	ModeCommit
)

// ErrDoorUnsupported is returned when the auditor transport lacks the
// endpoint a mode (or key rotation) needs.
var ErrDoorUnsupported = errors.New("operator: auditor transport lacks the door this flight needs")

// FlightSpec is what Fly needs beyond the route: the mode, and the rate
// of the fix-rate sampler.
type FlightSpec struct {
	Mode SamplingMode
	// FixedRateHz applies to ModeFixedRate.
	FixedRateHz float64
}

// Proof is what one flight leaves on the drone for SubmitProof: the
// sampler's run plus the payload its mode sends.
type Proof struct {
	Mode SamplingMode
	Run  *sampling.RunResult
	// Batch is ModeBatch's trace, signed once at landing.
	Batch poa.BatchPoA
	// Sealed is ModeSealed's trace with positions under one-time keys.
	Sealed privacy.SealedPoA
	// Commit is ModeCommit's signed Merkle commitment envelope.
	Commit privacy.CommitEnvelope
	// SessionID is the Auditor-side state the flight opened: the MAC
	// session (ModeMAC) or the stream (ModeStreaming).
	SessionID string
	// Final is ModeStreaming's close-of-flight verdict, and ViolationAt
	// the first sample its online check flagged (-1 when clean).
	Final       protocol.SubmitPoAResponse
	ViolationAt int
}

// modeRow is one sampling mode, written once. Fly, SubmitProof,
// RunMission and the drone CLI know nothing else about a mode.
type modeRow struct {
	name       string // -mode value and the drone.proof span's mode attribute
	disclosure string // disclosure registered for the mode by default ("" = full)
	auth       authenticator
	fixed      bool // fix-rate sampler at FixedRateHz; adaptive otherwise
	// finish closes the flight once the sampler stops (nil: nothing).
	finish func(d *Drone, p *Proof, zones []geo.GeoCircle) error
	// encode is the plaintext sealed to the Auditor after landing (nil:
	// the verdict arrived during flight).
	encode   func(p *Proof) ([]byte, error)
	door     door
	rotates  bool // a due key rotation runs between landing and submission
	persists bool // RunMission saves the encrypted body to MissionConfig.Store
	teeSpan  bool // the flight runs under a tee.sign span
}

var modeTable = [...]modeRow{
	ModeAdaptive:  {name: "adaptive", auth: authSign, encode: encodePoA, door: doorSubmit, rotates: true, persists: true, teeSpan: true},
	ModeFixedRate: {name: "fixed", auth: authSign, fixed: true, encode: encodePoA, door: doorSubmit, rotates: true, persists: true, teeSpan: true},
	ModeBatch:     {name: "batch", auth: authBuffer, finish: sealTrace, encode: encodeBatch, door: doorBatch, rotates: true, teeSpan: true},
	ModeMAC:       {name: "mac", auth: authMAC, encode: encodePoA, door: doorMAC, teeSpan: true},
	ModeStreaming: {name: "streaming", auth: authStream, finish: closeStream, door: doorStream},
	ModeSealed:    {name: "sealed", disclosure: poa.DisclosureSealed, auth: authSign, finish: sealPositions, encode: encodeSealed, door: doorSealed, rotates: true, teeSpan: true},
	ModeCommit:    {name: "commit", disclosure: poa.DisclosureCommit, auth: authBuffer, finish: commitTrace, encode: encodeCommit, door: doorCommit, rotates: true, teeSpan: true},
}

// row returns the mode's table row.
func (m SamplingMode) row() (*modeRow, error) {
	if m == 0 {
		m = ModeAdaptive
	}
	if m < ModeAdaptive || int(m) >= len(modeTable) {
		return nil, fmt.Errorf("operator: unknown sampling mode %d", int(m))
	}
	return &modeTable[m], nil
}

// String returns the mode's -mode name.
func (m SamplingMode) String() string {
	if r, err := m.row(); err == nil {
		return r.name
	}
	return fmt.Sprintf("mode-%d", int(m))
}

// Disclosure returns the disclosure mode a drone flying m registers by
// default: sealed or commit for the hiding modes, "" (full) otherwise.
func (m SamplingMode) Disclosure() string {
	if r, err := m.row(); err == nil {
		return r.disclosure
	}
	return ""
}

// ModeNames lists the -mode names in SamplingMode order.
func ModeNames() []string {
	names := make([]string, 0, len(modeTable)-1)
	for _, r := range modeTable[ModeAdaptive:] {
		names = append(names, r.name)
	}
	return names
}

// ParseMode resolves a -mode name.
func ParseMode(name string) (SamplingMode, error) {
	for m := ModeAdaptive; int(m) < len(modeTable); m++ {
		if modeTable[m].name == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want one of %v)", name, ModeNames())
}

// authenticator builds a flight's sampler environment — how each recorded
// sample crosses the secure world — after opening whatever Auditor-side
// state the flight needs into p.
type authenticator func(d *Drone, rx *gps.Receiver, p *Proof) (sampling.Env, error)

// authSign signs every recorded sample in the TEE.
func authSign(d *Drone, rx *gps.Receiver, _ *Proof) (sampling.Env, error) {
	return sampling.NewTEEEnv(d.dev, d.clock, rx), nil
}

// authBuffer holds recorded samples in secure memory, unsigned, for the
// finish step to sign as one trace.
func authBuffer(d *Drone, rx *gps.Receiver, _ *Proof) (sampling.Env, error) {
	return sampling.NewTEEBatchEnv(d.dev, d.clock, rx), nil
}

// authMAC opens a §VII-A1a session — the TEE wraps an ephemeral HMAC key
// to the Auditor, the drone forwards it — and tags every recorded sample
// under it.
func authMAC(d *Drone, rx *gps.Receiver, p *Proof) (sampling.Env, error) {
	pubStr, err := sigcrypto.MarshalPublicKey(d.auditorPub)
	if err != nil {
		return sampling.Env{}, fmt.Errorf("marshal auditor key: %w", err)
	}
	wrapped, err := d.dev.Invoke(tee.GPSSamplerUUID, tee.CmdEstablishSessionKey, []byte(pubStr))
	if err != nil {
		return sampling.Env{}, fmt.Errorf("establish session key: %w", err)
	}
	resp, err := d.api.(protocol.ModesAPI).StartSession(protocol.StartSessionRequest{DroneID: d.id, WrappedKey: wrapped})
	if err != nil {
		return sampling.Env{}, fmt.Errorf("start session: %w", err)
	}
	p.SessionID = resp.SessionID
	return sampling.NewTEEMACEnv(d.dev, d.clock, rx), nil
}

// authStream opens a real-time audit stream and pushes every signed
// sample to it as it is taken (the alternative in the paper's §IV-B task
// 4: in-flight violation detection at the cost of radio battery).
func authStream(d *Drone, rx *gps.Receiver, p *Proof) (sampling.Env, error) {
	stream := d.api.(protocol.StreamAPI)
	open, err := stream.OpenStream(protocol.OpenStreamRequest{DroneID: d.id})
	if err != nil {
		return sampling.Env{}, fmt.Errorf("open stream: %w", err)
	}
	p.SessionID = open.StreamID
	env := sampling.NewTEEEnv(d.dev, d.clock, rx)
	sign := env.Auth
	n := 0
	env.Auth = func(held time.Time) (poa.SignedSample, error) {
		ss, err := sign(held)
		if err != nil {
			return poa.SignedSample{}, err
		}
		resp, err := stream.StreamSample(protocol.StreamSampleRequest{StreamID: p.SessionID, Sample: ss})
		if err != nil {
			return poa.SignedSample{}, fmt.Errorf("stream sample: %w", err)
		}
		if resp.Verdict == protocol.VerdictViolation && p.ViolationAt < 0 {
			p.ViolationAt = n
		}
		n++
		return ss, nil
	}
	return env, nil
}

// sealTrace has the TEE sign the buffered trace once.
func sealTrace(d *Drone, p *Proof, _ []geo.GeoCircle) (err error) {
	p.Batch, err = sampling.SealTrace(d.dev)
	return err
}

// closeStream closes the flight's stream and keeps the Auditor's verdict.
func closeStream(d *Drone, p *Proof, _ []geo.GeoCircle) (err error) {
	if p.Final, err = d.api.(protocol.StreamAPI).CloseStream(protocol.CloseStreamRequest{StreamID: p.SessionID}); err != nil {
		return fmt.Errorf("close stream: %w", err)
	}
	return nil
}

// encodePoA and encodeBatch are the canonical binary proof bodies
// (poa.EncodePoA): the samples at signed precision plus raw signatures.
func encodePoA(p *Proof) ([]byte, error)    { return poa.EncodePoA(p.Run.PoA) }
func encodeBatch(p *Proof) ([]byte, error)  { return poa.EncodeBatchPoA(p.Batch) }
func encodeSealed(p *Proof) ([]byte, error) { return json.Marshal(p.Sealed) }

// encodeCommit is the compact binary envelope — root, timestamps,
// predicates — which is why commit mode's bytes on the wire stay a small
// fraction of a full submission.
func encodeCommit(p *Proof) ([]byte, error) { return privacy.EncodeCommitEnvelope(p.Commit), nil }

// door is the Auditor endpoint a mode's proof goes through: has reports
// whether a transport implements it, send delivers one encrypted body
// (nil for the stream, which is fed during flight).
type door struct {
	has  func(protocol.API) bool
	send func(api protocol.API, droneID string, p *Proof, ct []byte) (protocol.SubmitPoAResponse, error)
}

func implements[T any](api protocol.API) bool {
	_, ok := api.(T)
	return ok
}

var (
	doorSubmit = door{implements[protocol.API], func(api protocol.API, id string, _ *Proof, ct []byte) (protocol.SubmitPoAResponse, error) {
		return api.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct})
	}}
	doorBatch = door{implements[protocol.ModesAPI], func(api protocol.API, id string, _ *Proof, ct []byte) (protocol.SubmitPoAResponse, error) {
		return api.(protocol.ModesAPI).SubmitBatchPoA(protocol.SubmitBatchPoARequest{DroneID: id, EncryptedBatch: ct})
	}}
	doorMAC = door{implements[protocol.ModesAPI], func(api protocol.API, id string, p *Proof, ct []byte) (protocol.SubmitPoAResponse, error) {
		return api.(protocol.ModesAPI).SubmitMACPoA(protocol.SubmitMACPoARequest{DroneID: id, SessionID: p.SessionID, EncryptedPoA: ct})
	}}
	doorSealed = door{implements[protocol.DisclosureAPI], func(api protocol.API, id string, _ *Proof, ct []byte) (protocol.SubmitPoAResponse, error) {
		return api.(protocol.DisclosureAPI).SubmitSealedPoA(protocol.SubmitSealedPoARequest{DroneID: id, EncryptedPoA: ct})
	}}
	doorCommit = door{implements[protocol.DisclosureAPI], func(api protocol.API, id string, _ *Proof, ct []byte) (protocol.SubmitPoAResponse, error) {
		return api.(protocol.DisclosureAPI).SubmitCommitPoA(protocol.SubmitCommitPoARequest{DroneID: id, EncryptedEnvelope: ct})
	}}
	doorStream = door{has: implements[protocol.StreamAPI]}
)

// check resolves a flight against the table and the transport before
// any call leaves the drone.
func (d *Drone) check(spec FlightSpec, rotateEvery time.Duration) (*modeRow, error) {
	row, err := spec.Mode.row()
	switch {
	case err != nil:
		return nil, err
	case row.fixed && spec.FixedRateHz <= 0:
		return nil, fmt.Errorf("operator: %s mission needs FixedRateHz", row.name)
	case !row.door.has(d.api):
		return nil, fmt.Errorf("%w: %s mode on %T", ErrDoorUnsupported, row.name, d.api)
	case row.rotates && rotateEvery > 0 && !implements[protocol.RotationAPI](d.api):
		return nil, fmt.Errorf("%w: key rotation on %T", ErrDoorUnsupported, d.api)
	}
	return row, nil
}

// Fly runs one flight in spec's mode and returns what it leaves for
// SubmitProof. With a tracer attached the flight runs under a "tee.sign"
// span child of ctx (all modes but streaming). The doors a flight uses
// while airborne — the MAC session and the stream — go to the transport
// unbound.
func (d *Drone) Fly(ctx context.Context, rx *gps.Receiver, zones []geo.GeoCircle, until time.Time, spec FlightSpec) (*Proof, error) {
	if d.id == "" {
		return nil, ErrNotRegistered
	}
	row, err := d.check(spec, 0)
	if err != nil {
		return nil, err
	}
	p := &Proof{Mode: spec.Mode, ViolationAt: -1}
	env, err := row.auth(d, rx, p)
	if err != nil {
		return nil, err
	}
	fly := func() (err error) {
		if row.fixed {
			f := &sampling.FixedRate{Env: env, RateHz: spec.FixedRateHz, Metrics: d.metrics}
			p.Run, err = f.Run(until)
		} else {
			a := &sampling.Adaptive{Env: env, Index: zone.NewIndex(zones, 0), VMaxMS: geo.MaxDroneSpeedMPS, Rule: sampling.HeldRead, Metrics: d.metrics}
			p.Run, err = a.Run(until)
		}
		if err != nil {
			return fmt.Errorf("%s flight: %w", row.name, err)
		}
		if row.finish != nil {
			return row.finish(d, p, zones)
		}
		return nil
	}
	if row.teeSpan {
		err = d.teeSign(ctx, fly)
	} else {
		err = fly()
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// SubmitProof performs protocol task 4 for a landed flight: its mode's
// body, encrypted to the Auditor, through its mode's door under ctx. A
// streamed flight's verdict already arrived; it is returned as is.
func (d *Drone) SubmitProof(ctx context.Context, p *Proof) (protocol.SubmitPoAResponse, error) {
	ct, err := d.encrypt(p)
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	return d.send(ctx, p, ct)
}

// encrypt seals p's body to the Auditor (nil when the mode sends none).
func (d *Drone) encrypt(p *Proof) ([]byte, error) {
	row, err := p.Mode.row()
	if err != nil || row.encode == nil {
		return nil, err
	}
	body, err := row.encode(p)
	if err != nil {
		return nil, fmt.Errorf("encode %s proof: %w", row.name, err)
	}
	ct, err := sigcrypto.Seal(d.random, d.auditorPub, body)
	if err != nil {
		return nil, fmt.Errorf("encrypt %s proof: %w", row.name, err)
	}
	return ct, nil
}

// send delivers p's encrypted body through its mode's door under ctx.
func (d *Drone) send(ctx context.Context, p *Proof, ct []byte) (protocol.SubmitPoAResponse, error) {
	if d.id == "" {
		return protocol.SubmitPoAResponse{}, ErrNotRegistered
	}
	row, err := p.Mode.row()
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	if row.door.send == nil {
		return p.Final, nil
	}
	api := protocol.BindContext(ctx, d.api)
	if !row.door.has(api) {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %s mode on %T", ErrDoorUnsupported, row.name, api)
	}
	resp, err := row.door.send(api, d.id, p, ct)
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("submit %s proof: %w", row.name, err)
	}
	return resp, nil
}

// teeSign runs fn — a flight whose sampling invokes the TEE — under a
// "tee.sign" span annotated with the secure-world work it caused (SMC
// world switches, signatures, MACs, bytes covered), read as deltas of the
// device's monotonic counters.
func (d *Drone) teeSign(ctx context.Context, fn func() error) error {
	if d.tracer == nil {
		return fn()
	}
	before := d.dev.Snapshot()
	_, sp := d.tracer.StartSpan(ctx, "tee.sign")
	err := fn()
	after := d.dev.Snapshot()
	sp.SetInt("smcCalls", int64(after.SMCCalls-before.SMCCalls))
	sp.SetInt("signs", int64(after.Signs-before.Signs))
	sp.SetInt("macs", int64(after.MACs-before.MACs))
	sp.SetInt("signedBytes", int64(after.SignedBytes-before.SignedBytes))
	sp.SetError(err)
	sp.End()
	return err
}

// The wrappers below keep the names the repository benchmark compiles
// against; each is one call into Fly or SubmitProof.

// StreamingResult is the outcome of a real-time audited flight.
type StreamingResult struct {
	Run *sampling.RunResult
	// ViolationAt is the index of the first sample whose online check
	// failed, or -1 when the flight streamed clean.
	ViolationAt int
	// Final is the Auditor's close-of-flight verdict.
	Final protocol.SubmitPoAResponse
}

// FlyAdaptive flies in ModeAdaptive.
func (d *Drone) FlyAdaptive(rx *gps.Receiver, zones []geo.GeoCircle, until time.Time) (*sampling.RunResult, error) {
	p, err := d.Fly(context.Background(), rx, zones, until, FlightSpec{Mode: ModeAdaptive})
	if err != nil {
		return nil, err
	}
	return p.Run, nil
}

// FlyCommit flies in ModeCommit.
func (d *Drone) FlyCommit(rx *gps.Receiver, zones []geo.GeoCircle, until time.Time) (privacy.CommitEnvelope, *sampling.RunResult, error) {
	p, err := d.Fly(context.Background(), rx, zones, until, FlightSpec{Mode: ModeCommit})
	if err != nil {
		return privacy.CommitEnvelope{}, nil, err
	}
	return p.Commit, p.Run, nil
}

// FlyAdaptiveStreaming flies in ModeStreaming.
func (d *Drone) FlyAdaptiveStreaming(rx *gps.Receiver, zones []geo.GeoCircle, until time.Time) (*StreamingResult, error) {
	p, err := d.Fly(context.Background(), rx, zones, until, FlightSpec{Mode: ModeStreaming})
	if err != nil {
		return nil, err
	}
	return &StreamingResult{Run: p.Run, ViolationAt: p.ViolationAt, Final: p.Final}, nil
}

// EncryptPoA serialises and encrypts a Proof-of-Alibi to the Auditor, the
// form the Adapter persists locally and later submits.
func (d *Drone) EncryptPoA(p poa.PoA) ([]byte, error) {
	return d.encrypt(&Proof{Mode: ModeAdaptive, Run: &sampling.RunResult{PoA: p}})
}

// Submit is SubmitCtx without a caller context.
func (d *Drone) Submit(encryptedPoA []byte) (protocol.SubmitPoAResponse, error) {
	return d.SubmitCtx(context.Background(), encryptedPoA)
}

// SubmitCtx submits an already-encrypted PoA through the full door.
func (d *Drone) SubmitCtx(ctx context.Context, encryptedPoA []byte) (protocol.SubmitPoAResponse, error) {
	return d.send(ctx, &Proof{Mode: ModeAdaptive}, encryptedPoA)
}

// SubmitCommitPoA is SubmitCommitPoACtx without a caller context.
func (d *Drone) SubmitCommitPoA(env privacy.CommitEnvelope) (protocol.SubmitPoAResponse, error) {
	return d.SubmitCommitPoACtx(context.Background(), env)
}

// SubmitCommitPoACtx encrypts and submits a commit envelope.
func (d *Drone) SubmitCommitPoACtx(ctx context.Context, env privacy.CommitEnvelope) (protocol.SubmitPoAResponse, error) {
	return d.SubmitProof(ctx, &Proof{Mode: ModeCommit, Commit: env})
}
