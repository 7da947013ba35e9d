package privacy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/poa"
)

// This file implements the "commit" disclosure mode: instead of uploading
// sealed entries, the drone uploads only a TEE-signed envelope — a Merkle
// root over the sealed entries, the sample timestamps in the clear, and a
// zone-relative clearance predicate per no-fly zone. The Auditor can judge
// sufficiency from the predicates alone; positions surface only when an
// accusation forces a two-leaf selective disclosure against the root.

var (
	// ErrBadEnvelopeEncoding is returned when decoding a corrupted commit
	// envelope or sealed-entry leaf.
	ErrBadEnvelopeEncoding = errors.New("privacy: bad commit envelope encoding")
)

// CommitEnvelopeVersion is the current envelope format version.
const CommitEnvelopeVersion = 1

// Envelope decode bounds: a 1<<17-sample trace is ~36 hours at 1 Hz, far
// beyond any single flight, and predicates are one per registered zone.
const (
	maxCommitSamples    = 1 << 17
	maxCommitPredicates = 4096
	maxCommitSigBytes   = 4096
)

// ZonePredicate is one zone-relative claim: the minimum, over every
// consecutive sample pair, of D1 + D2 - vmax*(t2-t1) against the named
// zone. A positive clearance is exactly the paper's conservative
// sufficiency test holding for every pair — the drone provably stayed
// outside the zone — without disclosing any position.
type ZonePredicate struct {
	Zone            geo.GeoCircle `json:"zone"`
	ClearanceMeters float64       `json:"clearanceMeters"`
}

// Sufficient reports whether the predicate proves the alibi against its
// zone.
func (p ZonePredicate) Sufficient() bool { return p.ClearanceMeters > 0 }

// CommitEnvelope is the commit-mode submission payload. Times stay in the
// clear so an accusation can locate the spanning pair; Root commits to the
// sealed entries (see SealedSample.LeafBytes); Area bounds where the
// flight could have been (trajectory bounding box dilated by the maximum
// reachable excursion), so the Auditor knows which zones demand a
// predicate. Sig is the TEE vault signature over SigningBytes under
// KeyEpoch.
type CommitEnvelope struct {
	Version    int             `json:"version"`
	Times      []time.Time     `json:"times"`
	Root       []byte          `json:"root"`
	Area       geo.Rect        `json:"area"`
	VMaxMS     float64         `json:"vmaxMS"`
	Predicates []ZonePredicate `json:"predicates"`
	KeyEpoch   int             `json:"keyEpoch,omitempty"`
	Sig        []byte          `json:"sig"`
}

// Len returns the number of committed samples.
func (e CommitEnvelope) Len() int { return len(e.Times) }

// commitDomainTag version-tags the signed encoding, mirroring the "ADS1"
// tag on canonical samples.
const commitDomainTag = "ADC1"

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func takeFloat(b []byte) (float64, []byte) {
	return math.Float64frombits(binary.BigEndian.Uint64(b[:8])), b[8:]
}

// SigningBytes is the deterministic encoding of every envelope field except
// the signature — the message the TEE signs and the Auditor verifies.
func (e CommitEnvelope) SigningBytes() []byte {
	b := make([]byte, 0, 4+2+4+8*len(e.Times)+32+5*8+2+32*len(e.Predicates)+4)
	b = append(b, commitDomainTag...)
	b = binary.BigEndian.AppendUint16(b, uint16(e.Version))
	b = binary.BigEndian.AppendUint32(b, uint32(len(e.Times)))
	for _, t := range e.Times {
		b = binary.BigEndian.AppendUint64(b, uint64(t.UnixMilli()))
	}
	var root [32]byte
	copy(root[:], e.Root)
	b = append(b, root[:]...)
	b = appendFloat(b, e.Area.MinLat)
	b = appendFloat(b, e.Area.MinLon)
	b = appendFloat(b, e.Area.MaxLat)
	b = appendFloat(b, e.Area.MaxLon)
	b = appendFloat(b, e.VMaxMS)
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Predicates)))
	for _, p := range e.Predicates {
		b = appendFloat(b, p.Zone.Center.Lat)
		b = appendFloat(b, p.Zone.Center.Lon)
		b = appendFloat(b, p.Zone.R)
		b = appendFloat(b, p.ClearanceMeters)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(e.KeyEpoch))
	return b
}

// EncodeCommitEnvelope is the compact wire form of the envelope: the
// signed encoding followed by a length-prefixed signature. For a
// 600-sample trace this is ~5 KB against the ~200 KB plaintext PoA — the
// byte saving the commit mode exists for.
func EncodeCommitEnvelope(e CommitEnvelope) []byte {
	b := e.SigningBytes()
	b = binary.BigEndian.AppendUint16(b, uint16(len(e.Sig)))
	return append(b, e.Sig...)
}

// DecodeCommitEnvelope reverses EncodeCommitEnvelope, rejecting truncated
// input, trailing bytes, and out-of-bound counts.
func DecodeCommitEnvelope(b []byte) (CommitEnvelope, error) {
	var e CommitEnvelope
	bad := func(format string, args ...any) (CommitEnvelope, error) {
		return CommitEnvelope{}, fmt.Errorf("%w: %s", ErrBadEnvelopeEncoding, fmt.Sprintf(format, args...))
	}
	if len(b) < 4+2+4 {
		return bad("%d bytes, truncated header", len(b))
	}
	if string(b[:4]) != commitDomainTag {
		return bad("missing %s tag", commitDomainTag)
	}
	b = b[4:]
	e.Version = int(binary.BigEndian.Uint16(b[:2]))
	if e.Version != CommitEnvelopeVersion {
		return bad("version %d", e.Version)
	}
	n := int(binary.BigEndian.Uint32(b[2:6]))
	b = b[6:]
	if n > maxCommitSamples {
		return bad("%d samples exceeds %d", n, maxCommitSamples)
	}
	if len(b) < 8*n {
		return bad("truncated timestamps")
	}
	e.Times = make([]time.Time, n)
	for i := range e.Times {
		e.Times[i] = time.UnixMilli(int64(binary.BigEndian.Uint64(b[:8]))).UTC()
		b = b[8:]
	}
	if len(b) < 32+5*8+2 {
		return bad("truncated root")
	}
	e.Root = append([]byte(nil), b[:32]...)
	b = b[32:]
	e.Area.MinLat, b = takeFloat(b)
	e.Area.MinLon, b = takeFloat(b)
	e.Area.MaxLat, b = takeFloat(b)
	e.Area.MaxLon, b = takeFloat(b)
	e.VMaxMS, b = takeFloat(b)
	np := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	if np > maxCommitPredicates {
		return bad("%d predicates exceeds %d", np, maxCommitPredicates)
	}
	if len(b) < 32*np {
		return bad("truncated predicates")
	}
	e.Predicates = make([]ZonePredicate, np)
	for i := range e.Predicates {
		p := &e.Predicates[i]
		p.Zone.Center.Lat, b = takeFloat(b)
		p.Zone.Center.Lon, b = takeFloat(b)
		p.Zone.R, b = takeFloat(b)
		p.ClearanceMeters, b = takeFloat(b)
	}
	if len(b) < 4+2 {
		return bad("truncated trailer")
	}
	e.KeyEpoch = int(binary.BigEndian.Uint32(b[:4]))
	ns := int(binary.BigEndian.Uint16(b[4:6]))
	b = b[6:]
	if ns > maxCommitSigBytes {
		return bad("%d signature bytes exceeds %d", ns, maxCommitSigBytes)
	}
	if len(b) != ns {
		return bad("%d trailing signature bytes, want %d", len(b), ns)
	}
	e.Sig = append([]byte(nil), b...)
	return e, nil
}

// leafDomainTag version-tags the leaf encoding committed under the root.
const leafDomainTag = "ADL1"

// LeafBytes is the canonical encoding of a sealed entry as a Merkle leaf:
// what the TEE commits to at sealing time and what the Auditor re-hashes
// from a revealed entry at accusation time.
func (s SealedSample) LeafBytes() []byte {
	b := make([]byte, 0, 4+8+2+len(s.Nonce)+4+len(s.Ciphertext)+2+len(s.Sig))
	b = append(b, leafDomainTag...)
	b = binary.BigEndian.AppendUint64(b, uint64(s.Time.UnixMilli()))
	b = binary.BigEndian.AppendUint16(b, uint16(len(s.Nonce)))
	b = append(b, s.Nonce...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Ciphertext)))
	b = append(b, s.Ciphertext...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(s.Sig)))
	return append(b, s.Sig...)
}

// DecodeLeaf reverses LeafBytes, rejecting a wrong tag, truncated fields
// and trailing bytes, so an accepted leaf re-encodes to itself. The
// entry's byte fields alias b.
func DecodeLeaf(b []byte) (SealedSample, error) {
	bad := func(what string) (SealedSample, error) {
		return SealedSample{}, fmt.Errorf("%w: leaf %s", ErrBadEnvelopeEncoding, what)
	}
	if len(b) < 4+8+2 || string(b[:4]) != leafDomainTag {
		return bad("header")
	}
	s := SealedSample{Time: time.UnixMilli(int64(binary.BigEndian.Uint64(b[4:12]))).UTC()}
	b = b[12:]
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n+4 {
		return bad("nonce")
	}
	s.Nonce, b = b[2:2+n:2+n], b[2+n:]
	n = int(binary.BigEndian.Uint32(b))
	if len(b)-4-2 < n {
		return bad("ciphertext")
	}
	s.Ciphertext, b = b[4:4+n:4+n], b[4+n:]
	if n = int(binary.BigEndian.Uint16(b)); len(b) != 2+n {
		return bad("signature")
	}
	s.Sig = b[2:]
	return s, nil
}

// MerkleTree builds the commitment tree over the sealed entries, in entry
// order. The operator keeps it alongside the key ring to answer
// accusations with authentication paths.
func (sp SealedPoA) MerkleTree() (*poa.MerkleTree, error) {
	leaves := make([][]byte, len(sp.Entries))
	for i := range sp.Entries {
		leaves[i] = sp.Entries[i].LeafBytes()
	}
	return poa.NewMerkleTree(leaves)
}

// CommitTrace seals a signed PoA and derives the unsigned commit envelope:
// Merkle root over the sealed entries, clear timestamps, the dilated
// flight area, and one clearance predicate per known zone. The caller (the
// TEE's commit-trace command) signs the envelope; the sealed entries and
// key ring stay with the operator.
func CommitTrace(p poa.PoA, zones []geo.GeoCircle, vmaxMS float64, random io.Reader) (SealedPoA, *KeyRing, *CommitEnvelope, error) {
	if p.Len() < 2 {
		return SealedPoA{}, nil, nil, poa.ErrTooFewSamples
	}
	samples := p.Alibi()
	if err := poa.CheckChronology(samples); err != nil {
		return SealedPoA{}, nil, nil, err
	}
	sealed, ring, err := Seal(p, random)
	if err != nil {
		return SealedPoA{}, nil, nil, err
	}
	tree, err := sealed.MerkleTree()
	if err != nil {
		return SealedPoA{}, nil, nil, err
	}
	root := tree.Root()

	times := make([]time.Time, len(samples))
	maxGap := 0.0
	area := geo.NewRect(samples[0].Pos, samples[0].Pos)
	for i, s := range samples {
		times[i] = time.UnixMilli(s.Time.UnixMilli()).UTC()
		area = geo.NewRect(
			geo.LatLon{Lat: math.Min(area.MinLat, s.Pos.Lat), Lon: math.Min(area.MinLon, s.Pos.Lon)},
			geo.LatLon{Lat: math.Max(area.MaxLat, s.Pos.Lat), Lon: math.Max(area.MaxLon, s.Pos.Lon)},
		)
		if i > 0 {
			if gap := s.Time.Sub(samples[i-1].Time).Seconds(); gap > maxGap {
				maxGap = gap
			}
		}
	}
	// Between samples the drone can stray at most vmax*gap/2 from the
	// segment; dilating by the full gap excursion keeps the area a sound
	// over-approximation of everywhere the drone could have been.
	area = area.Expand(maxGap*vmaxMS + 1)

	preds := make([]ZonePredicate, 0, len(zones))
	dist := make([]float64, len(samples)) // each sample's distance to the zone's boundary
	for _, z := range zones {
		for i, s := range samples {
			dist[i] = z.BoundaryDistMeters(s.Pos)
		}
		clearance := math.Inf(1)
		for i := 0; i+1 < len(samples); i++ {
			dt := samples[i+1].Time.Sub(samples[i].Time).Seconds()
			if v := dist[i] + dist[i+1] - vmaxMS*dt; v < clearance {
				clearance = v
			}
		}
		preds = append(preds, ZonePredicate{Zone: z, ClearanceMeters: clearance})
	}

	env := &CommitEnvelope{
		Version:    CommitEnvelopeVersion,
		Times:      times,
		Root:       root[:],
		Area:       area,
		VMaxMS:     vmaxMS,
		Predicates: preds,
	}
	return sealed, ring, env, nil
}

// FindPairTimes locates the consecutive index pair (i, i+1) in a clear
// timestamp series spanning the accused instant — FindPair for commit-mode
// envelopes, where the Auditor holds only Times.
func FindPairTimes(times []time.Time, at time.Time) (int, error) {
	return findSpanning(len(times), at, func(i int) time.Time { return times[i] })
}
