package poa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
)

// This file is the submitted proof's one byte form: the plaintext a drone
// seals to the Auditor for the full, MAC and batch doors. It carries each
// sample at exactly the precision the TEE signs ("ADS1": 1e-7 degree,
// centimetre, millisecond) plus the raw signature or MAC tag, and the
// decoder accepts exactly one spelling of every proof — so the replay
// digest, a hash of these bytes, names the proof and not its encoding.
//
//	poa    = "ADP1" | uvarint n | n × (sample | varint epoch | uvarint len | sig)
//	batch  = "ADB1" | uvarint n | n × sample | varint epoch | uvarint len | sig
//	sample = int32 lat (1e-7°) | int32 lon (1e-7°) | varint alt (cm) |
//	         varint Δt (ms after the previous sample; the first sample's
//	         Δt is its UnixMilli)
//
// int32s are little-endian; varint is Go's zig-zag signed varint and
// uvarint its unsigned form, both minimal. Lat, lon and alt lie within
// ±MaxInt32, and MinInt32 stands for a negative zero, which Sample.Marshal
// signs as "-0.0…" and the decoded sample must therefore keep.

// ErrBadPoAEncoding is returned when a proof body is malformed or a proof
// holds a value the body cannot carry.
var ErrBadPoAEncoding = errors.New("poa: bad proof encoding")

const (
	poaTag   = "ADP1"
	batchTag = "ADB1"
	// maxProofSamples bounds the sample count a decoder will allocate
	// for; a 24-hour flight at 1 Hz is 86,400.
	maxProofSamples = 1 << 17
	// maxSigBytes bounds one signature or MAC tag (an RSA-4096 signature
	// is 512 bytes).
	maxSigBytes = 4096
	// maxAbsMilli bounds sample times to where UnixMilli round-trips
	// exactly (about ±285,000 years).
	maxAbsMilli = 1 << 53
	// minSampleBytes is the smallest encoded sample: two int32s and two
	// one-byte varints.
	minSampleBytes = 4 + 4 + 1 + 1
)

// EncodePoA returns the canonical body of p. It fails only on a proof no
// signature could cover: a coordinate, altitude, time or key epoch
// outside the body's range, or an oversized signature.
func EncodePoA(p PoA) ([]byte, error) {
	if len(p.Samples) > maxProofSamples {
		return nil, fmt.Errorf("%w: %d samples exceeds %d", ErrBadPoAEncoding, len(p.Samples), maxProofSamples)
	}
	sig := 0
	if len(p.Samples) > 0 {
		sig = len(p.Samples[0].Sig)
	}
	b := make([]byte, 0, len(poaTag)+3+len(p.Samples)*(minSampleBytes+6+sig))
	b = append(b, poaTag...)
	b = binary.AppendUvarint(b, uint64(len(p.Samples)))
	var prev int64
	for i, ss := range p.Samples {
		var err error
		if b, prev, err = appendSample(b, ss.Sample, prev); err == nil {
			b, err = appendTrailer(b, ss.KeyEpoch, ss.Sig)
		}
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return b, nil
}

// DecodePoA reverses EncodePoA. It rejects truncated input, trailing
// bytes, non-minimal varints and out-of-range counts, lengths and
// values, so every accepted body re-encodes to itself.
func DecodePoA(b []byte) (PoA, error) {
	d := newDecoder(b)
	p := PoA{Samples: make([]SignedSample, d.header(poaTag))}
	var prev int64
	for i := range p.Samples {
		ss := &p.Samples[i]
		ss.Sample, prev = d.sample(prev)
		ss.KeyEpoch, ss.Sig = d.trailer()
	}
	if err := d.finish(); err != nil {
		return PoA{}, err
	}
	return p, nil
}

// EncodeBatchPoA returns the canonical body of a batch-signed trace: the
// samples in EncodePoA's layout, then one epoch and one signature.
func EncodeBatchPoA(bp BatchPoA) ([]byte, error) {
	if len(bp.Samples) > maxProofSamples {
		return nil, fmt.Errorf("%w: %d samples exceeds %d", ErrBadPoAEncoding, len(bp.Samples), maxProofSamples)
	}
	b := make([]byte, 0, len(batchTag)+3+len(bp.Samples)*(minSampleBytes+2)+8+len(bp.Sig))
	b = append(b, batchTag...)
	b = binary.AppendUvarint(b, uint64(len(bp.Samples)))
	var prev int64
	for i, s := range bp.Samples {
		var err error
		if b, prev, err = appendSample(b, s, prev); err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
	}
	return appendTrailer(b, bp.KeyEpoch, bp.Sig)
}

// DecodeBatchPoA reverses EncodeBatchPoA under DecodePoA's strict rules.
func DecodeBatchPoA(b []byte) (BatchPoA, error) {
	d := newDecoder(b)
	bp := BatchPoA{Samples: make([]Sample, d.header(batchTag))}
	var prev int64
	for i := range bp.Samples {
		bp.Samples[i], prev = d.sample(prev)
	}
	bp.KeyEpoch, bp.Sig = d.trailer()
	if err := d.finish(); err != nil {
		return BatchPoA{}, err
	}
	return bp, nil
}

// appendSample appends one sample at signed precision. prev is the
// previous sample's UnixMilli (zero for the first); the sample's own is
// returned for the next call.
func appendSample(b []byte, s Sample, prev int64) ([]byte, int64, error) {
	lat, ok1 := fixed(s.Pos.Lat, 1e7, 7)
	lon, ok2 := fixed(s.Pos.Lon, 1e7, 7)
	alt, ok3 := fixed(s.AltMeters, 100, 2)
	if !ok1 || !ok2 || !ok3 {
		return b, 0, fmt.Errorf("%w: position %v altitude %v outside the body's range", ErrBadPoAEncoding, s.Pos, s.AltMeters)
	}
	ms := s.Time.UnixMilli()
	if ms < -maxAbsMilli || ms > maxAbsMilli {
		return b, 0, fmt.Errorf("%w: time %v outside the body's range", ErrBadPoAEncoding, s.Time)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(lat))
	b = binary.LittleEndian.AppendUint32(b, uint32(lon))
	b = binary.AppendVarint(b, int64(alt))
	b = binary.AppendVarint(b, ms-prev)
	return b, ms, nil
}

// appendTrailer appends a key epoch and a length-prefixed signature.
func appendTrailer(b []byte, epoch int, sig []byte) ([]byte, error) {
	if epoch < math.MinInt32 || epoch > math.MaxInt32 || len(sig) > maxSigBytes {
		return b, fmt.Errorf("%w: epoch %d or %d-byte signature outside the body's range", ErrBadPoAEncoding, epoch, len(sig))
	}
	b = binary.AppendVarint(b, int64(epoch))
	b = binary.AppendUvarint(b, uint64(len(sig)))
	return append(b, sig...), nil
}

// fixed returns v in units of 1/scale — the digits Sample.Marshal prints
// for v at prec decimals — with MinInt32 for a negative zero. ok is false
// when v is not finite or lies beyond ±MaxInt32 units.
func fixed(v, scale float64, prec int) (n int32, ok bool) {
	r := math.Round(v * scale)
	if r/scale != v {
		// Not already at signed precision: take the digits Marshal signs,
		// so the decoded sample verifies under the same signature.
		i, err := strconv.ParseInt(strings.Replace(strconv.FormatFloat(v, 'f', prec, 64), ".", "", 1), 10, 64)
		if err != nil {
			return 0, false
		}
		r = float64(i)
	}
	switch {
	case r == 0 && math.Signbit(v):
		return math.MinInt32, true
	case r < -math.MaxInt32 || r > math.MaxInt32:
		return 0, false
	}
	return int32(r), true
}

// unfixed reverses fixed.
func unfixed(n int32, scale float64) float64 {
	if n == math.MinInt32 {
		return math.Copysign(0, -1)
	}
	return float64(n) / scale
}

// decoder consumes a proof body. It keeps the first error so the field
// readers stay straight-line; after an error every read yields zeros.
// Signatures are sliced out of one copy of the body, so a decode makes
// two allocations whatever the sample count.
type decoder struct {
	b, sigs []byte
	err     error
}

func newDecoder(b []byte) decoder {
	return decoder{b: b, sigs: make([]byte, 0, len(b))}
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadPoAEncoding, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

// header checks the tag and returns a sample count the rest of the body
// can hold.
func (d *decoder) header(tag string) int {
	if len(d.b) < len(tag) || string(d.b[:len(tag)]) != tag {
		d.fail("missing %s tag", tag)
		return 0
	}
	d.b = d.b[len(tag):]
	n := d.uvarint(maxProofSamples)
	if n > uint64(len(d.b)/minSampleBytes) {
		d.fail("%d samples cannot fit in %d bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

// uvarint reads a minimal unsigned varint no larger than limit.
func (d *decoder) uvarint(limit uint64) uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n <= 0:
		d.fail("bad varint")
		return 0
	case n > 1 && d.b[n-1] == 0:
		d.fail("non-minimal varint")
		return 0
	case v > limit:
		d.fail("value %d exceeds %d", v, limit)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint reads a minimal zig-zag varint within [lo, hi].
func (d *decoder) varint(lo, hi int64) int64 {
	u := d.uvarint(math.MaxUint64)
	v := int64(u>>1) ^ -int64(u&1)
	if v < lo || v > hi {
		d.fail("value %d outside [%d, %d]", v, lo, hi)
		return 0
	}
	return v
}

func (d *decoder) int32() int32 {
	if len(d.b) < 4 {
		d.fail("truncated sample")
		return 0
	}
	v := int32(binary.LittleEndian.Uint32(d.b))
	d.b = d.b[4:]
	return v
}

// sample reads one sample following a sample at UnixMilli prev.
func (d *decoder) sample(prev int64) (Sample, int64) {
	lat, lon := d.int32(), d.int32()
	alt := int32(d.varint(math.MinInt32, math.MaxInt32))
	ms := prev + d.varint(-2*maxAbsMilli, 2*maxAbsMilli)
	if ms < -maxAbsMilli || ms > maxAbsMilli {
		d.fail("time %d ms outside ±%d", ms, int64(maxAbsMilli))
	}
	return Sample{
		Pos:       geo.LatLon{Lat: unfixed(lat, 1e7), Lon: unfixed(lon, 1e7)},
		AltMeters: unfixed(alt, 100),
		Time:      time.UnixMilli(ms).UTC(),
	}, ms
}

// trailer reads a key epoch and a length-prefixed signature.
func (d *decoder) trailer() (int, []byte) {
	epoch := d.varint(math.MinInt32, math.MaxInt32)
	n := d.uvarint(maxSigBytes)
	switch {
	case uint64(len(d.b)) < n:
		d.fail("signature runs past the body")
		return 0, nil
	case n == 0:
		return int(epoch), nil
	}
	start := len(d.sigs)
	d.sigs = append(d.sigs, d.b[:n]...)
	d.b = d.b[n:]
	return int(epoch), d.sigs[start:len(d.sigs):len(d.sigs)]
}

// finish reports the first error, or trailing bytes.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	return d.err
}
