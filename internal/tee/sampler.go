package tee

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
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
	// the buffer. Request: EncodeCommitTraceRequest. Response: see
	// DecodeCommitTraceResult.
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
	return encodeSigned(msg, sig, epoch), nil
}

// timedSign signs msg in the vault under the op-labelled sign-latency
// histogram (a straight vault.sign when metrics are disabled) and reports
// the key epoch the signature was produced under.
func (ta *GPSSamplerTA) timedSign(op string, msg []byte) ([]byte, int, error) {
	m := ta.dev.metrics.Load()
	if m == nil {
		return ta.dev.Vault().sign(msg)
	}
	sp := m.reg.StartSpan(m.signSeconds.With(op))
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
	return encodeSigned(msg, sig, epoch), nil
}

func (ta *GPSSamplerTA) commitTrace(req []byte) ([]byte, error) {
	zones, vmaxMS, err := decodeCommitTraceRequest(req)
	if err != nil {
		return nil, err
	}
	if len(ta.buffer) == 0 {
		return nil, ErrEmptyTraceBuffer
	}
	if vmaxMS <= 0 {
		vmaxMS = geo.MaxDroneSpeedMPS
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
	sealed, ring, env, err := privacy.CommitTrace(p, zones, vmaxMS, ta.random)
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
	return encodeCommitTraceResult(*env, sealed, keys), nil
}

// EncodeCommitTraceRequest is CmdCommitTrace's payload: the zones the
// drone flew against and the speed bound of the clearance predicates (a
// non-positive vmaxMS selects the FAA part-107 cap). Layout: uint16 zone
// count | per zone lat, lon, R | vmax, each float64 big-endian.
func EncodeCommitTraceRequest(zones []geo.GeoCircle, vmaxMS float64) []byte {
	b := binary.BigEndian.AppendUint16(make([]byte, 0, 2+24*len(zones)+8), uint16(len(zones)))
	for _, z := range zones {
		b = appendFloat(appendFloat(appendFloat(b, z.Center.Lat), z.Center.Lon), z.R)
	}
	return appendFloat(b, vmaxMS)
}

// decodeCommitTraceRequest reverses EncodeCommitTraceRequest. The bytes
// come from the untrusted normal world: a wrong length, an invalid zone or
// a non-finite speed bound is refused, so an accepted request re-encodes
// to itself.
func decodeCommitTraceRequest(b []byte) ([]geo.GeoCircle, float64, error) {
	if len(b) < 2 || len(b) != 2+24*int(binary.BigEndian.Uint16(b))+8 {
		return nil, 0, fmt.Errorf("%w: commit-trace request of %d bytes", ErrBadPayload, len(b))
	}
	zones := make([]geo.GeoCircle, binary.BigEndian.Uint16(b))
	b = b[2:]
	for i := range zones {
		z := &zones[i]
		z.Center.Lat, b = takeFloat(b)
		z.Center.Lon, b = takeFloat(b)
		if z.R, b = takeFloat(b); !z.Valid() {
			return nil, 0, fmt.Errorf("%w: commit-trace zone %d is invalid", ErrBadPayload, i)
		}
	}
	if vmaxMS, _ := takeFloat(b); !math.IsNaN(vmaxMS) && !math.IsInf(vmaxMS, 0) {
		return zones, vmaxMS, nil
	}
	return nil, 0, fmt.Errorf("%w: commit-trace speed bound is not finite", ErrBadPayload)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func takeFloat(b []byte) (float64, []byte) {
	return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:]
}

// encodeCommitTraceResult frames CmdCommitTrace's response as segments:
// the encoded envelope for the Auditor, then per committed sample its
// sealed entry's leaf encoding and its one-time key, which the operator
// retains to answer accusations.
func encodeCommitTraceResult(env privacy.CommitEnvelope, sealed privacy.SealedPoA, keys [][]byte) []byte {
	segs := [][]byte{privacy.EncodeCommitEnvelope(env)}
	for i, e := range sealed.Entries {
		segs = append(segs, e.LeafBytes(), keys[i])
	}
	return encodeSegments(segs...)
}

// DecodeCommitTraceResult unpacks a CmdCommitTrace response into the
// signed envelope, the sealed entries and their one-time keys: exactly one
// entry and key per committed sample, so an accepted response re-encodes
// to itself. Byte fields alias resp.
func DecodeCommitTraceResult(resp []byte) (privacy.CommitEnvelope, privacy.SealedPoA, [][]byte, error) {
	bad := func(err error) (privacy.CommitEnvelope, privacy.SealedPoA, [][]byte, error) {
		return privacy.CommitEnvelope{}, privacy.SealedPoA{}, nil, fmt.Errorf("%w: commit-trace result: %w", ErrBadPayload, err)
	}
	segs, err := DecodeSegments(resp)
	if err == nil && len(segs) == 0 {
		err = errors.New("no envelope")
	}
	if err != nil {
		return bad(err)
	}
	env, err := privacy.DecodeCommitEnvelope(segs[0])
	if err != nil {
		return bad(err)
	}
	if len(segs) != 1+2*env.Len() {
		return bad(fmt.Errorf("%d segments for %d samples", len(segs), env.Len()))
	}
	sealed := privacy.SealedPoA{Entries: make([]privacy.SealedSample, env.Len())}
	keys := make([][]byte, env.Len())
	for i := range keys {
		if sealed.Entries[i], err = privacy.DecodeLeaf(segs[1+2*i]); err != nil {
			return bad(err)
		}
		keys[i] = segs[2+2*i]
	}
	return env, sealed, keys, nil
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
	return encodeSigned(msg, tag, 0), nil
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

// encodeSigned frames a signed (or MACed) payload with the key epoch it
// was signed under as a third, 4-byte segment.
func encodeSigned(msg, sig []byte, epoch int) []byte {
	return encodeSegments(msg, sig, binary.BigEndian.AppendUint32(nil, uint32(epoch)))
}

// decodeSigned reverses encodeSigned.
func decodeSigned(resp []byte) (msg, sig []byte, epoch int, err error) {
	segs, err := DecodeSegments(resp)
	if err == nil && (len(segs) != 3 || len(segs[2]) != 4) {
		err = fmt.Errorf("%w: want message, signature and 4-byte epoch segments, got %d segments", ErrBadPayload, len(segs))
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return segs[0], segs[1], int(binary.BigEndian.Uint32(segs[2])), nil
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
	msg, sig, epoch, err := decodeSigned(resp)
	if err != nil {
		return poa.SignedSample{}, err
	}
	s, err := poa.UnmarshalSample(msg)
	if err != nil {
		return poa.SignedSample{}, err
	}
	return poa.SignedSample{Sample: s, Sig: sig, KeyEpoch: epoch}, nil
}

// DecodeSealedTrace unpacks a CmdSealTrace response into the batch PoA it
// carries.
func DecodeSealedTrace(resp []byte) (poa.BatchPoA, error) {
	msg, sig, epoch, err := decodeSigned(resp)
	if err != nil {
		return poa.BatchPoA{}, err
	}
	samples, err := poa.UnmarshalBatch(msg)
	if err != nil {
		return poa.BatchPoA{}, err
	}
	return poa.BatchPoA{Samples: samples, Sig: sig, KeyEpoch: epoch}, nil
}
