package poa

import (
	"bytes"
	"testing"
)

// FuzzDecodePoA: arbitrary bytes never panic, and any body the decoder
// accepts re-encodes to itself — one proof, one plaintext, one replay
// digest.
func FuzzDecodePoA(f *testing.F) {
	for _, p := range []PoA{rsa1024PoA(f, 151), ed25519PoA(f, 20)} {
		body, err := EncodePoA(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte("ADP1\x00"))
	f.Add([]byte("ADP1\x80\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := DecodePoA(raw)
		if err != nil {
			return
		}
		again, err := EncodePoA(p)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted body re-encodes differently:\n in  %x\n out %x", raw, again)
		}
	})
}

// FuzzDecodeBatchPoA is FuzzDecodePoA for the batch body.
func FuzzDecodeBatchPoA(f *testing.F) {
	for _, p := range []PoA{rsa1024PoA(f, 151), ed25519PoA(f, 20)} {
		body, err := EncodeBatchPoA(BatchPoA{Samples: p.Alibi(), Sig: p.Samples[0].Sig, KeyEpoch: 1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte("ADB1\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		bp, err := DecodeBatchPoA(raw)
		if err != nil {
			return
		}
		again, err := EncodeBatchPoA(bp)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted body re-encodes differently:\n in  %x\n out %x", raw, again)
		}
	})
}
