package privacy

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/poa"
)

func TestCommitTraceEnvelope(t *testing.T) {
	p, _ := buildSignedPoA(t, 10, time.Second) // eastbound at 10 m/s
	far := geo.GeoCircle{Center: urbana.Offset(0, 5000), R: 100}
	near := geo.GeoCircle{Center: urbana.Offset(90, 50), R: 100} // on the path
	sealed, ring, env, err := CommitTrace(p, []geo.GeoCircle{far, near}, geo.MaxDroneSpeedMPS, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if sealed.Len() != 10 || ring.Len() != 10 || env.Len() != 10 {
		t.Fatalf("entries=%d keys=%d times=%d", sealed.Len(), ring.Len(), env.Len())
	}
	for i, s := range p.Samples {
		if !env.Times[i].Equal(s.Sample.Time) {
			t.Errorf("time %d mismatch", i)
		}
	}
	if !env.Predicates[0].Sufficient() {
		t.Errorf("far zone clearance %.1f m, want positive", env.Predicates[0].ClearanceMeters)
	}
	if env.Predicates[1].Sufficient() {
		t.Errorf("on-path zone clearance %.1f m, want non-positive", env.Predicates[1].ClearanceMeters)
	}
	// The dilated area must cover every sample but stay a local box.
	for i, s := range p.Samples {
		if !env.Area.Contains(s.Sample.Pos) {
			t.Errorf("area excludes sample %d", i)
		}
	}
	if !env.Area.Valid() {
		t.Error("invalid area")
	}

	// The root commits to the sealed entries: a proof per leaf verifies,
	// and a tampered leaf does not.
	tree, err := sealed.MerkleTree()
	if err != nil {
		t.Fatal(err)
	}
	var root [32]byte
	copy(root[:], env.Root)
	if tree.Root() != root {
		t.Fatal("envelope root disagrees with sealed entries")
	}
	for i := range sealed.Entries {
		pr, err := tree.Proof(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := poa.VerifyMerkleProof(root, pr); err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
		if got := poa.LeafHash(sealed.Entries[i].LeafBytes()); got != pr.Leaf {
			t.Fatalf("leaf %d: recomputed hash mismatch", i)
		}
	}
	forged := sealed.Entries[3]
	forged.Ciphertext = append([]byte(nil), forged.Ciphertext...)
	forged.Ciphertext[0] ^= 1
	pr, _ := tree.Proof(3)
	pr.Leaf = poa.LeafHash(forged.LeafBytes())
	if poa.VerifyMerkleProof(root, pr) == nil {
		t.Fatal("forged leaf verified against root")
	}
}

// TestCommitTracePredicatesMatchReference keeps the double loop that
// measured each sample's boundary distance once per pair side: over a
// random trace and random zones, the one-pass predicates must be
// float-identical to it.
func TestCommitTracePredicatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var p poa.PoA
	pos, at := urbana, t0
	for i := 0; i < 120; i++ {
		pos = pos.Offset(rng.Float64()*360, rng.Float64()*40)
		at = at.Add(time.Duration(200+rng.Intn(3000)) * time.Millisecond)
		p.Append(poa.SignedSample{Sample: poa.Sample{Pos: pos, Time: at}.Canon(), Sig: []byte("sig")})
	}
	zones := make([]geo.GeoCircle, 25)
	for i := range zones {
		zones[i] = geo.GeoCircle{Center: urbana.Offset(rng.Float64()*360, rng.Float64()*2000), R: 5 + rng.Float64()*300}
	}
	_, _, env, err := CommitTrace(p, zones, geo.MaxDroneSpeedMPS, rand.New(rand.NewSource(38)))
	if err != nil {
		t.Fatal(err)
	}
	samples := p.Alibi()
	for k, z := range zones {
		want := math.Inf(1)
		for i := 0; i+1 < len(samples); i++ {
			dt := samples[i+1].Time.Sub(samples[i].Time).Seconds()
			v := z.BoundaryDistMeters(samples[i].Pos) + z.BoundaryDistMeters(samples[i+1].Pos) - geo.MaxDroneSpeedMPS*dt
			if v < want {
				want = v
			}
		}
		if got := env.Predicates[k].ClearanceMeters; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("zone %d: clearance %v, reference %v", k, got, want)
		}
	}
}

// TestDecodeLeaf: every sealed entry's leaf decodes to the entry and
// re-encodes to itself; a cut or extended leaf is refused.
func TestDecodeLeaf(t *testing.T) {
	p, _ := buildSignedPoA(t, 5, time.Second)
	sealed, _, err := Seal(p, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range sealed.Entries {
		leaf := e.LeafBytes()
		got, err := DecodeLeaf(leaf)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !bytes.Equal(got.LeafBytes(), leaf) || !got.Time.Equal(e.Time) {
			t.Errorf("entry %d does not round-trip", i)
		}
		for cut := 0; cut < len(leaf); cut++ {
			if _, err := DecodeLeaf(leaf[:cut]); !errors.Is(err, ErrBadEnvelopeEncoding) {
				t.Fatalf("entry %d cut at %d: err = %v", i, cut, err)
			}
		}
		if _, err := DecodeLeaf(append(leaf, 0)); !errors.Is(err, ErrBadEnvelopeEncoding) {
			t.Errorf("entry %d with a trailing byte: err = %v", i, err)
		}
	}
}

func TestCommitTraceTooShort(t *testing.T) {
	p, _ := buildSignedPoA(t, 1, time.Second)
	if _, _, _, err := CommitTrace(p, nil, geo.MaxDroneSpeedMPS, rand.New(rand.NewSource(12))); !errors.Is(err, poa.ErrTooFewSamples) {
		t.Fatalf("err = %v, want ErrTooFewSamples", err)
	}
}

func TestCommitEnvelopeCodecRoundTrip(t *testing.T) {
	p, _ := buildSignedPoA(t, 6, 2*time.Second)
	z := geo.GeoCircle{Center: urbana.Offset(0, 3000), R: 250}
	_, _, env, err := CommitTrace(p, []geo.GeoCircle{z}, geo.MaxDroneSpeedMPS, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	env.KeyEpoch = 3
	env.Sig = []byte("not-a-real-signature")

	enc := EncodeCommitEnvelope(*env)
	dec, err := DecodeCommitEnvelope(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeCommitEnvelope(dec), enc) {
		t.Fatal("re-encode mismatch")
	}
	if !bytes.Equal(dec.SigningBytes(), env.SigningBytes()) {
		t.Fatal("signed bytes changed across the codec")
	}
	if dec.KeyEpoch != 3 || !bytes.Equal(dec.Sig, env.Sig) {
		t.Fatal("trailer fields lost")
	}
	for i := range env.Times {
		if !dec.Times[i].Equal(env.Times[i]) {
			t.Fatalf("time %d mismatch", i)
		}
	}

	for name, b := range map[string][]byte{
		"empty":     {},
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte{}, enc...), 0),
		"bad tag":   append([]byte("XXXX"), enc[4:]...),
	} {
		if _, err := DecodeCommitEnvelope(b); !errors.Is(err, ErrBadEnvelopeEncoding) {
			t.Errorf("%s: err = %v, want ErrBadEnvelopeEncoding", name, err)
		}
	}
}

func TestFindPairTimes(t *testing.T) {
	times := []time.Time{t0, t0.Add(10 * time.Second), t0.Add(20 * time.Second)}
	if i, err := FindPairTimes(times, t0.Add(15*time.Second)); err != nil || i != 1 {
		t.Fatalf("FindPairTimes = %d, %v; want 1", i, err)
	}
	if _, err := FindPairTimes(times, t0.Add(-time.Second)); !errors.Is(err, ErrNoPairCovers) {
		t.Fatalf("err = %v, want ErrNoPairCovers", err)
	}
}

func FuzzDecodeCommitEnvelope(f *testing.F) {
	p, err := buildFuzzPoA()
	if err != nil {
		f.Fatal(err)
	}
	z := geo.GeoCircle{Center: urbana.Offset(0, 3000), R: 250}
	_, _, env, err := CommitTrace(p, []geo.GeoCircle{z}, geo.MaxDroneSpeedMPS, rand.New(rand.NewSource(14)))
	if err != nil {
		f.Fatal(err)
	}
	env.Sig = []byte("seed-signature")
	f.Add(EncodeCommitEnvelope(*env))
	env.KeyEpoch = 7
	env.Predicates = nil
	f.Add(EncodeCommitEnvelope(*env))
	f.Add([]byte(commitDomainTag))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := DecodeCommitEnvelope(b)
		if err != nil {
			return
		}
		// Decodable envelopes are canonical: re-encoding reproduces the
		// input, so signatures bind to exactly one byte form.
		if enc := EncodeCommitEnvelope(e); !bytes.Equal(enc, b) {
			t.Fatalf("re-encode mismatch: %x vs %x", enc, b)
		}
	})
}

// buildFuzzPoA is buildSignedPoA without *testing.T, for fuzz seeding.
func buildFuzzPoA() (poa.PoA, error) {
	var p poa.PoA
	for i := 0; i < 4; i++ {
		s := poa.Sample{
			Pos:  urbana.Offset(90, 10*float64(i)),
			Time: t0.Add(time.Duration(i) * time.Second),
		}.Canon()
		p.Append(poa.SignedSample{Sample: s, Sig: []byte("sig")})
	}
	return p, nil
}
