package tee

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/obs"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/sigcrypto"
)

// GPSSamplerUUID is the well-known UUID of the GPS Sampler trusted
// application.
var GPSSamplerUUID = UUID{0xa1, 0x1d, 0x20, 0x18, 0x00, 0x86, 0x4f, 0x0a,
	0x90, 0x01, 0x47, 0x50, 0x53, 0x53, 0x41, 0x4d}

// Command IDs exposed by the GPS Sampler TA.
const (
	// CmdGetGPSAuth reads the latest fix from the secure GPS driver,
	// signs its canonical encoding with T-, and returns sample || sig.
	// This is the paper's GetGPSAuth interface. An optional 8-byte
	// payload (HeldFix) names an earlier fix to sign instead; see
	// fixFor.
	CmdGetGPSAuth uint32 = iota + 1
	// CmdGetPublicKey returns the marshalled verification key T+.
	CmdGetPublicKey
	// CmdBufferSample reads the latest fix (or the held fix a HeldFix
	// payload names) into the secure in-memory trace buffer without
	// signing (paper §VII-A1b batch mode).
	CmdBufferSample
	// CmdSealTrace signs the entire buffered trace at once and clears
	// the buffer, returning batch || sig.
	CmdSealTrace
	// CmdEstablishSessionKey generates an ephemeral HMAC key inside the
	// TEE and returns it encrypted under the Auditor public key supplied
	// in the request (paper §VII-A1a symmetric mode).
	CmdEstablishSessionKey
	// CmdGetGPSMAC reads the latest fix (or the held fix a HeldFix
	// payload names) and returns sample || HMAC tag computed with the
	// established session key.
	CmdGetGPSMAC
	// CmdRotateKey generates a successor TEE keypair inside the vault and
	// returns the JSON handover record signed by the outgoing key. The
	// payload is the drone's registered identifier, which the handover
	// binds the new key to.
	CmdRotateKey
	// CmdCommitTrace signs each buffered sample, seals the trace under
	// one-time keys, and signs the commit-mode envelope (Merkle root over
	// the sealed entries plus zone clearance predicates) before clearing
	// the buffer. Request: JSON CommitTraceRequest. Response: JSON
	// CommitTraceResult.
	CmdCommitTrace
)

var (
	// ErrNoSessionKey is returned by CmdGetGPSMAC before a session key
	// has been established.
	ErrNoSessionKey = errors.New("tee: no session key established")
	// ErrEmptyTraceBuffer is returned by CmdSealTrace when nothing was
	// buffered.
	ErrEmptyTraceBuffer = errors.New("tee: trace buffer is empty")
	// ErrBadPayload is returned when a command payload cannot be
	// decoded.
	ErrBadPayload = errors.New("tee: bad command payload")
	// ErrHeldFixRefused is returned when a held-fix request names no fix
	// the TA may authenticate.
	ErrHeldFixRefused = errors.New("tee: held fix refused")
)

// sessionKeyBytes is the length of the ephemeral HMAC session key.
const sessionKeyBytes = 32

// GPSSource is what the sampler TA reads from: the secure-world GPS
// driver, or a source that switches drivers between flights.
type GPSSource interface {
	GetGPS(now time.Time) (gps.Fix, error)
}

var _ GPSSource = (*gps.Driver)(nil)

// GPSSamplerTA is the trusted application that authenticates GPS data
// (paper §IV-C2 and §V-B). It runs in the secure world: it has direct
// access to the secure GPS driver and the key vault.
type GPSSamplerTA struct {
	dev        *Device
	driver     GPSSource
	random     io.Reader
	buffer     []poa.Sample // §VII-A1b secure trace buffer
	sessionKey []byte       // §VII-A1a ephemeral HMAC key
	lastAuth   time.Time    // stamp of the last fix this TA authenticated
}

var _ TrustedApp = (*GPSSamplerTA)(nil)

// NewGPSSampler installs a GPS Sampler TA on the device, wired to the
// secure-world GPS source. random feeds session-key generation and
// encryption padding (crypto/rand.Reader when nil).
func NewGPSSampler(dev *Device, source GPSSource, random io.Reader) (*GPSSamplerTA, error) {
	if random == nil {
		random = rand.Reader
	}
	ta := &GPSSamplerTA{dev: dev, driver: source, random: random}
	if err := dev.Install(ta); err != nil {
		return nil, err
	}
	return ta, nil
}

// UUID implements TrustedApp.
func (ta *GPSSamplerTA) UUID() UUID { return GPSSamplerUUID }

// Invoke implements TrustedApp: the GlobalPlatform command dispatch.
func (ta *GPSSamplerTA) Invoke(cmd uint32, req []byte) ([]byte, error) {
	switch cmd {
	case CmdGetGPSAuth:
		return ta.getGPSAuth(req)
	case CmdGetPublicKey:
		pub, err := ta.dev.Vault().SuiteKey().Marshal()
		if err != nil {
			return nil, err
		}
		return []byte(pub), nil
	case CmdBufferSample:
		return ta.bufferSample(req)
	case CmdSealTrace:
		return ta.sealTrace()
	case CmdEstablishSessionKey:
		return ta.establishSessionKey(req)
	case CmdGetGPSMAC:
		return ta.getGPSMAC(req)
	case CmdRotateKey:
		return ta.rotateKey(req)
	case CmdCommitTrace:
		return ta.commitTrace(req)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadCommand, cmd)
	}
}

// readSample pulls the latest fix at instant at from the secure driver and
// converts it to a canonical PoA sample.
func (ta *GPSSamplerTA) readSample(at time.Time) (poa.Sample, error) {
	fix, err := ta.driver.GetGPS(at)
	if err != nil {
		return poa.Sample{}, fmt.Errorf("secure gps read: %w", err)
	}
	s := poa.Sample{Pos: fix.Pos, AltMeters: fix.AltMeters, Time: fix.Time}
	return s.Canon(), nil
}

// heldFixBytes is the length of a held-fix payload: the fix's time as
// big-endian Unix nanoseconds.
const heldFixBytes = 8

// HeldFix encodes the payload that names the fix stamped at: passed to
// CmdGetGPSAuth, CmdBufferSample or CmdGetGPSMAC it makes the command
// authenticate that earlier fix instead of the latest one. The zero time
// names none: the payload is empty and the command takes the latest fix.
func HeldFix(at time.Time) []byte {
	if at.IsZero() {
		return nil
	}
	return binary.BigEndian.AppendUint64(nil, uint64(at.UnixNano()))
}

// fixFor resolves the fix a sampling command authenticates. An empty
// payload takes the latest fix, as the paper's GetGPSAuth does. A HeldFix
// payload takes the secure driver's fix at the named instant, and only if
// it is stamped that instant (a missed update leaves an older fix there),
// is newer than the last fix this TA authenticated (no stale or double
// sign) and is older than the latest fix (the normal world can only name
// a fix it has already seen go by). A fix's stamp carries the millisecond
// resolution of its NMEA sentence and of the canonical sample, so the
// instant is compared at that resolution. Either way the fix becomes the
// last authenticated one.
func (ta *GPSSamplerTA) fixFor(req []byte) (poa.Sample, error) {
	if len(req) != 0 && len(req) != heldFixBytes {
		return poa.Sample{}, fmt.Errorf("%w: held-fix payload is %d bytes, want %d", ErrBadPayload, len(req), heldFixBytes)
	}
	latest, err := ta.readSample(ta.dev.Clock().Now())
	if err != nil {
		return poa.Sample{}, err
	}
	s := latest
	if len(req) == heldFixBytes {
		at := time.Unix(0, int64(binary.BigEndian.Uint64(req))).UTC()
		if !at.Before(latest.Time) {
			return poa.Sample{}, fmt.Errorf("%w: %v is not older than the latest fix", ErrHeldFixRefused, at)
		}
		if s, err = ta.readSample(at); err != nil {
			return poa.Sample{}, err
		}
		switch {
		case !s.Time.Equal(at.Truncate(time.Millisecond)):
			return poa.Sample{}, fmt.Errorf("%w: no fix stamped %v", ErrHeldFixRefused, at)
		case !s.Time.After(ta.lastAuth):
			return poa.Sample{}, fmt.Errorf("%w: %v is not newer than the last authenticated fix", ErrHeldFixRefused, at)
		}
	}
	ta.lastAuth = s.Time
	return s, nil
}

func (ta *GPSSamplerTA) getGPSAuth(req []byte) ([]byte, error) {
	s, err := ta.fixFor(req)
	if err != nil {
		return nil, err
	}
	msg := s.Marshal()
	sig, epoch, err := ta.timedSign("sign", msg)
	if err != nil {
		return nil, err
	}
	ta.dev.chargeSign(len(msg))
	return encodeAuthSegments(msg, sig, epoch), nil
}

// timedSign signs msg in the vault under the op-labelled sign-latency
// histogram (a straight vault.sign when metrics are disabled) and reports
// the key epoch the signature was produced under.
func (ta *GPSSamplerTA) timedSign(op string, msg []byte) ([]byte, int, error) {
	reg := ta.dev.Metrics()
	sp := reg.StartSpan(reg.Histogram(obs.L(MetricSignSeconds, "op", op), obs.DurationBuckets))
	sig, epoch, err := ta.dev.Vault().sign(msg)
	sp.End()
	return sig, epoch, err
}

// rotateKey rotates the vault keypair and returns the JSON handover record
// for the normal world to forward to the Auditor.
func (ta *GPSSamplerTA) rotateKey(req []byte) ([]byte, error) {
	droneID := string(req)
	if droneID == "" {
		return nil, fmt.Errorf("%w: rotate-key needs the drone id", ErrBadPayload)
	}
	h, err := ta.dev.Vault().rotate(droneID, ta.dev.Clock().Now())
	if err != nil {
		return nil, err
	}
	return json.Marshal(h)
}

func (ta *GPSSamplerTA) bufferSample(req []byte) ([]byte, error) {
	s, err := ta.fixFor(req)
	if err != nil {
		return nil, err
	}
	ta.buffer = append(ta.buffer, s)
	return s.Marshal(), nil
}

func (ta *GPSSamplerTA) sealTrace() ([]byte, error) {
	if len(ta.buffer) == 0 {
		return nil, ErrEmptyTraceBuffer
	}
	msg := poa.MarshalBatch(ta.buffer)
	sig, epoch, err := ta.timedSign("seal", msg)
	if err != nil {
		return nil, err
	}
	ta.dev.chargeSign(len(msg))
	ta.buffer = nil
	return encodeAuthSegments(msg, sig, epoch), nil
}

// CommitTraceRequest parameterises CmdCommitTrace: the zones the drone
// flew against (from its pre-flight zone query) and the speed bound used
// for the clearance predicates. A non-positive VMaxMS falls back to the
// FAA part-107 cap.
type CommitTraceRequest struct {
	Zones  []geo.GeoCircle `json:"zones"`
	VMaxMS float64         `json:"vmaxMS"`
}

// CommitTraceResult is everything CmdCommitTrace hands back to the normal
// world: the signed envelope for the Auditor, and the sealed entries plus
// one-time keys the operator retains to answer accusations.
type CommitTraceResult struct {
	Envelope privacy.CommitEnvelope `json:"envelope"`
	Sealed   privacy.SealedPoA      `json:"sealed"`
	Keys     [][]byte               `json:"keys"`
}

func (ta *GPSSamplerTA) commitTrace(req []byte) ([]byte, error) {
	var r CommitTraceRequest
	if err := json.Unmarshal(req, &r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if len(ta.buffer) == 0 {
		return nil, ErrEmptyTraceBuffer
	}
	if r.VMaxMS <= 0 {
		r.VMaxMS = geo.MaxDroneSpeedMPS
	}
	var p poa.PoA
	for _, s := range ta.buffer {
		msg := s.Marshal()
		sig, epoch, err := ta.timedSign("commit", msg)
		if err != nil {
			return nil, err
		}
		ta.dev.chargeSign(len(msg))
		p.Append(poa.SignedSample{Sample: s, Sig: sig, KeyEpoch: epoch})
	}
	sealed, ring, env, err := privacy.CommitTrace(p, r.Zones, r.VMaxMS, ta.random)
	if err != nil {
		return nil, err
	}
	msg := env.SigningBytes()
	sig, epoch, err := ta.timedSign("commit", msg)
	if err != nil {
		return nil, err
	}
	ta.dev.chargeSign(len(msg))
	env.Sig, env.KeyEpoch = sig, epoch
	keys := make([][]byte, ring.Len())
	for i := range keys {
		if keys[i], err = ring.Reveal(i); err != nil {
			return nil, err
		}
	}
	ta.buffer = nil
	return json.Marshal(CommitTraceResult{Envelope: *env, Sealed: sealed, Keys: keys})
}

func (ta *GPSSamplerTA) establishSessionKey(req []byte) ([]byte, error) {
	auditorPub, err := sigcrypto.UnmarshalPublicKey(string(req))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	key := make([]byte, sessionKeyBytes)
	if _, err := io.ReadFull(ta.random, key); err != nil {
		return nil, fmt.Errorf("tee: session key entropy: %w", err)
	}
	ta.sessionKey = key
	ct, err := sigcrypto.Seal(ta.random, auditorPub, key)
	if err != nil {
		return nil, fmt.Errorf("tee: wrap session key: %w", err)
	}
	return ct, nil
}

func (ta *GPSSamplerTA) getGPSMAC(req []byte) ([]byte, error) {
	if ta.sessionKey == nil {
		return nil, ErrNoSessionKey
	}
	s, err := ta.fixFor(req)
	if err != nil {
		return nil, err
	}
	msg := s.Marshal()
	tag := sigcrypto.MAC(ta.sessionKey, msg)
	ta.dev.chargeMAC(len(msg))
	return encodeSegments(msg, tag), nil
}

// encodeSegments frames byte segments with uint32 length prefixes.
func encodeSegments(segs ...[]byte) []byte {
	n := 0
	for _, s := range segs {
		n += 4 + len(s)
	}
	out := make([]byte, 0, n)
	for _, s := range segs {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(s)))
		out = append(out, hdr[:]...)
		out = append(out, s...)
	}
	return out
}

// encodeAuthSegments frames a signed payload, appending the key epoch as a
// third 4-byte segment when the vault has rotated. Epoch-zero responses
// keep the original two-segment wire form, so devices that never rotate
// stay byte-compatible with pre-rotation decoders.
func encodeAuthSegments(msg, sig []byte, epoch int) []byte {
	if epoch == 0 {
		return encodeSegments(msg, sig)
	}
	var e [4]byte
	binary.BigEndian.PutUint32(e[:], uint32(epoch))
	return encodeSegments(msg, sig, e[:])
}

// decodeEpochSegment reads the optional third response segment.
func decodeEpochSegment(segs [][]byte) (int, error) {
	if len(segs) < 3 {
		return 0, nil
	}
	if len(segs[2]) != 4 {
		return 0, fmt.Errorf("%w: epoch segment is %d bytes, want 4", ErrBadPayload, len(segs[2]))
	}
	return int(binary.BigEndian.Uint32(segs[2])), nil
}

// DecodeSegments reverses encodeSegments; exported because the normal-world
// Adapter needs it to unpack TA responses.
func DecodeSegments(b []byte) ([][]byte, error) {
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: truncated header", ErrBadPayload)
		}
		n := binary.BigEndian.Uint32(b[:4])
		b = b[4:]
		if uint32(len(b)) < n {
			return nil, fmt.Errorf("%w: truncated segment", ErrBadPayload)
		}
		out = append(out, b[:n])
		b = b[n:]
	}
	return out, nil
}

// DecodeAuthSample unpacks a CmdGetGPSAuth / CmdGetGPSMAC response into the
// signed sample it carries.
func DecodeAuthSample(resp []byte) (poa.SignedSample, error) {
	segs, err := DecodeSegments(resp)
	if err != nil {
		return poa.SignedSample{}, err
	}
	if len(segs) != 2 && len(segs) != 3 {
		return poa.SignedSample{}, fmt.Errorf("%w: want 2 or 3 segments, got %d", ErrBadPayload, len(segs))
	}
	epoch, err := decodeEpochSegment(segs)
	if err != nil {
		return poa.SignedSample{}, err
	}
	s, err := poa.UnmarshalSample(segs[0])
	if err != nil {
		return poa.SignedSample{}, err
	}
	return poa.SignedSample{Sample: s, Sig: segs[1], KeyEpoch: epoch}, nil
}

// DecodeSealedTrace unpacks a CmdSealTrace response into the batch PoA it
// carries.
func DecodeSealedTrace(resp []byte) (poa.BatchPoA, error) {
	segs, err := DecodeSegments(resp)
	if err != nil {
		return poa.BatchPoA{}, err
	}
	if len(segs) != 2 && len(segs) != 3 {
		return poa.BatchPoA{}, fmt.Errorf("%w: want 2 or 3 segments, got %d", ErrBadPayload, len(segs))
	}
	epoch, err := decodeEpochSegment(segs)
	if err != nil {
		return poa.BatchPoA{}, err
	}
	samples, err := poa.UnmarshalBatch(segs[0])
	if err != nil {
		return poa.BatchPoA{}, err
	}
	return poa.BatchPoA{Samples: samples, Sig: segs[1], KeyEpoch: epoch}, nil
}
