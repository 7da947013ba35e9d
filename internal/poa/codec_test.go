package poa

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sigcrypto"
)

// streetTrace is a canonical 1 Hz trace of n samples heading north-east
// from Urbana, the shape of a street flight's PoA.
func streetTrace(n int) []Sample {
	t0 := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{
			Pos:       geo.LatLon{Lat: 40.1106 + 1.3e-4*float64(i), Lon: -88.2073 + 0.9e-4*float64(i)},
			AltMeters: 30 + 0.25*float64(i%7),
			Time:      t0.Add(time.Duration(i) * 1003 * time.Millisecond),
		}.Canon()
	}
	return out
}

// signedPoA signs every sample of trace with sign.
func signedPoA(tb testing.TB, trace []Sample, sign func([]byte) []byte) PoA {
	tb.Helper()
	var p PoA
	for i, s := range trace {
		p.Append(SignedSample{Sample: s, Sig: sign(s.Marshal()), KeyEpoch: i / 100})
	}
	return p
}

// rsa1024PoA and ed25519PoA are the two suites' street-flight proofs.
func rsa1024PoA(tb testing.TB, n int) PoA {
	key, err := sigcrypto.GenerateKeyPair(rand.Reader, 1024)
	if err != nil {
		tb.Fatal(err)
	}
	return signedPoA(tb, streetTrace(n), func(msg []byte) []byte {
		sig, err := sigcrypto.Sign(key, msg)
		if err != nil {
			tb.Fatal(err)
		}
		return sig
	})
}

func ed25519PoA(tb testing.TB, n int) PoA {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	return signedPoA(tb, streetTrace(n), func(msg []byte) []byte { return ed25519.Sign(priv, msg) })
}

func TestPoACodecRoundTrip(t *testing.T) {
	for name, p := range map[string]PoA{
		"rsa1024": rsa1024PoA(t, 151),
		"ed25519": ed25519PoA(t, 40),
		"empty":   {Samples: []SignedSample{}},
	} {
		t.Run(name, func(t *testing.T) {
			body, err := EncodePoA(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodePoA(body)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Samples) != len(p.Samples) {
				t.Fatalf("decoded %d samples, want %d", len(got.Samples), len(p.Samples))
			}
			for i := range p.Samples {
				w, g := p.Samples[i], got.Samples[i]
				if g.Sample != w.Sample || g.KeyEpoch != w.KeyEpoch || !bytes.Equal(g.Sig, w.Sig) {
					t.Fatalf("sample %d: got %+v, want %+v", i, g, w)
				}
			}
			again, _ := EncodePoA(got)
			if !bytes.Equal(again, body) {
				t.Fatal("re-encoding a decoded body changed its bytes")
			}
		})
	}
}

// The 151-sample rsa1024 street proof is what full-mode flights submit:
// 128 signature bytes plus about 20 bytes of sample per entry.
func TestPoACodecSize(t *testing.T) {
	body, err := EncodePoA(rsa1024PoA(t, 151))
	if err != nil {
		t.Fatal(err)
	}
	if perSample := len(body) / 151; perSample > 128+16 {
		t.Fatalf("%d bytes for 151 samples (%d per sample), want at most %d per sample", len(body), perSample, 128+16)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	bp := BatchPoA{Samples: streetTrace(60), Sig: bytes.Repeat([]byte{0xa5}, 128), KeyEpoch: 3}
	body, err := EncodeBatchPoA(bp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchPoA(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.KeyEpoch != 3 || !bytes.Equal(got.Sig, bp.Sig) || !bytes.Equal(MarshalBatch(got.Samples), MarshalBatch(bp.Samples)) {
		t.Fatalf("batch round trip changed the proof: %+v", got)
	}
	if _, err := DecodePoA(body); !errors.Is(err, ErrBadPoAEncoding) {
		t.Fatalf("a batch body decoded as a per-sample PoA: %v", err)
	}
}

// A sample that is not at signed precision encodes as the digits its
// signature covers, negative zeros included, so the decoded sample still
// verifies.
func TestPoACodecKeepsSignedDigits(t *testing.T) {
	t0 := time.UnixMilli(1527865200123).UTC()
	raw := []Sample{
		{Pos: geo.LatLon{Lat: 40.11060004, Lon: -88.20730006}, AltMeters: 12.345, Time: t0.Add(700 * time.Microsecond)},
		{Pos: geo.LatLon{Lat: -0.00000001, Lon: math.Copysign(0, -1)}, AltMeters: -0.004, Time: t0.Add(time.Second)},
		{Pos: geo.LatLon{Lat: 89.99999999, Lon: 180}, AltMeters: -400, Time: t0.Add(-time.Hour)},
	}
	var p PoA
	for _, s := range raw {
		p.Append(SignedSample{Sample: s})
	}
	body, err := EncodePoA(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePoA(body)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range raw {
		if g := got.Samples[i].Sample.Marshal(); !bytes.Equal(g, s.Marshal()) {
			t.Errorf("sample %d decodes to %q, signed bytes are %q", i, g, s.Marshal())
		}
	}
}

func TestPoACodecRejectsUnencodable(t *testing.T) {
	ok := streetTrace(1)[0]
	for name, ss := range map[string]SignedSample{
		"lat NaN":    {Sample: Sample{Pos: geo.LatLon{Lat: math.NaN()}, Time: ok.Time}},
		"lon 250°":   {Sample: Sample{Pos: geo.LatLon{Lon: 250}, Time: ok.Time}},
		"alt +Inf":   {Sample: Sample{AltMeters: math.Inf(1), Time: ok.Time}},
		"year 300k":  {Sample: Sample{Time: time.UnixMilli(1 << 54)}},
		"sig 5000 B": {Sample: ok, Sig: make([]byte, 5000)},
		"epoch 2^40": {Sample: ok, KeyEpoch: 1 << 40},
	} {
		if _, err := EncodePoA(PoA{Samples: []SignedSample{ss}}); !errors.Is(err, ErrBadPoAEncoding) {
			t.Errorf("%s: encode error %v, want ErrBadPoAEncoding", name, err)
		}
	}
}

// One proof has one body: every other spelling a decoder could be
// lenient about is refused.
func TestDecodePoAIsStrict(t *testing.T) {
	p := ed25519PoA(t, 3)
	body, err := EncodePoA(p)
	if err != nil {
		t.Fatal(err)
	}
	if body[4] != 3 {
		t.Fatalf("count byte is %#x, want 3", body[4])
	}
	mutate := func(f func([]byte) []byte) []byte { return f(append([]byte(nil), body...)) }
	for name, bad := range map[string][]byte{
		"trailing byte":      mutate(func(b []byte) []byte { return append(b, 0) }),
		"truncated":          body[:len(body)-1],
		"wrong tag":          mutate(func(b []byte) []byte { b[3] = '2'; return b }),
		"non-minimal count":  mutate(func(b []byte) []byte { return append(append(b[:4:4], 0x83, 0x00), b[5:]...) }),
		"count past body":    mutate(func(b []byte) []byte { b[4] = 0x7f; return b }),
		"empty":              nil,
		"batch tag":          mutate(func(b []byte) []byte { copy(b, batchTag); return b }),
		"sig length 5000":    append([]byte("ADP1\x01"), append(make([]byte, 10), 0, 0x88, 0x27)...),
		"time past 2^53 ms":  append([]byte("ADP1\x01"), append(make([]byte, 8), 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0, 0)...),
		"alt beyond int32":   append([]byte("ADP1\x01"), append(make([]byte, 8), 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0, 0)...),
		"non-minimal length": append([]byte("ADP1\x01"), append(make([]byte, 10), 0, 0x80, 0x00)...),
	} {
		if _, err := DecodePoA(bad); !errors.Is(err, ErrBadPoAEncoding) {
			t.Errorf("%s: decode error %v, want ErrBadPoAEncoding", name, err)
		}
	}
}

func TestDecodeBatchPoAIsStrict(t *testing.T) {
	body, err := EncodeBatchPoA(BatchPoA{Samples: streetTrace(3), Sig: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"trailing byte": append(append([]byte(nil), body...), 0),
		"truncated":     body[:len(body)-1],
		"poa tag":       append([]byte(poaTag), body[4:]...),
	} {
		if _, err := DecodeBatchPoA(bad); !errors.Is(err, ErrBadPoAEncoding) {
			t.Errorf("%s: decode error %v, want ErrBadPoAEncoding", name, err)
		}
	}
}
