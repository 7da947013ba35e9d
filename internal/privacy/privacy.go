// Package privacy implements the paper's §VII-B3 extension: verification
// against an honest-but-curious Auditor. The drone uploads its
// Proof-of-Alibi with every sample position encrypted under a fresh
// one-time key (timestamps stay in the clear so the relevant pair can be
// located); the operator keeps the key ring. When a Zone Owner accuses the
// drone of being in a zone at some instant, the operator reveals only the
// two keys for the sample pair spanning that instant. The Auditor can then
// verify the TEE signatures on just those two samples and decide the
// boolean compliance question while learning only that fragment of the
// trajectory.
package privacy

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/poa"
	"repro/internal/sigcrypto"
)

var (
	// ErrNoPairCovers is returned when no consecutive sample pair spans
	// the accused instant.
	ErrNoPairCovers = errors.New("privacy: no sample pair covers the incident time")
	// ErrBadKey is returned when a disclosed key fails to open its entry.
	ErrBadKey = errors.New("privacy: disclosed key does not open the entry")
	// ErrKeyIndex is returned for out-of-range key requests.
	ErrKeyIndex = errors.New("privacy: key index out of range")
	// ErrTimeMismatch is returned when a decrypted sample's timestamp
	// disagrees with the entry's public timestamp.
	ErrTimeMismatch = errors.New("privacy: entry timestamp does not match decrypted sample")
)

// oneTimeKeyBytes is the AES-256 key length used per sample.
const oneTimeKeyBytes = 32

// SealedSample is one encrypted PoA entry: the public timestamp, the
// AES-GCM-encrypted canonical sample, and the TEE signature over the
// plaintext sample.
type SealedSample struct {
	Time       time.Time `json:"time"`
	Nonce      []byte    `json:"nonce"`
	Ciphertext []byte    `json:"ciphertext"`
	Sig        []byte    `json:"sig"`
}

// SealedPoA is the privacy-preserving Proof-of-Alibi uploaded after a
// flight.
type SealedPoA struct {
	Entries []SealedSample `json:"entries"`
}

// Len returns the number of sealed entries.
func (sp SealedPoA) Len() int { return len(sp.Entries) }

// KeyRing is the operator-retained set of one-time keys, one per entry.
type KeyRing struct {
	keys [][]byte
}

// Len returns the number of keys.
func (kr *KeyRing) Len() int { return len(kr.keys) }

// Reveal discloses the key for entry i (called only when answering an
// accusation).
func (kr *KeyRing) Reveal(i int) ([]byte, error) {
	if i < 0 || i >= len(kr.keys) {
		return nil, fmt.Errorf("%w: %d", ErrKeyIndex, i)
	}
	out := make([]byte, len(kr.keys[i]))
	copy(out, kr.keys[i])
	return out, nil
}

// Seal encrypts every signed sample of a PoA under its own one-time key.
// The TEE signatures pass through untouched: they cover the plaintext
// canonical sample, so the Auditor can verify them after disclosure.
func Seal(p poa.PoA, random io.Reader) (SealedPoA, *KeyRing, error) {
	if random == nil {
		random = rand.Reader
	}
	sealed := SealedPoA{Entries: make([]SealedSample, 0, p.Len())}
	ring := &KeyRing{keys: make([][]byte, 0, p.Len())}

	for i, ss := range p.Samples {
		key := make([]byte, oneTimeKeyBytes)
		if _, err := io.ReadFull(random, key); err != nil {
			return SealedPoA{}, nil, fmt.Errorf("sample %d: key entropy: %w", i, err)
		}
		nonce, ct, err := sigcrypto.SealGCM(random, key, ss.Sample.Marshal(), nil)
		if err != nil {
			return SealedPoA{}, nil, fmt.Errorf("sample %d: %w", i, err)
		}
		sealed.Entries = append(sealed.Entries, SealedSample{
			Time:       ss.Sample.Time,
			Nonce:      nonce,
			Ciphertext: ct,
			Sig:        ss.Sig,
		})
		ring.keys = append(ring.keys, key)
	}
	return sealed, ring, nil
}

// FindPair locates the consecutive entry pair (i, i+1) whose public
// timestamps span the accused instant.
func FindPair(sp SealedPoA, at time.Time) (int, error) {
	return findSpanning(len(sp.Entries), at, func(i int) time.Time { return sp.Entries[i].Time })
}

// findSpanning binary-searches a time-sorted series for the first
// consecutive pair spanning at. Entries are chronological by construction
// (the TEE samples in time order and sealing preserves order), so the
// first index with timeAt(i) >= at pins the only candidate pair; with
// duplicate timestamps the candidate check still lands on the same first
// spanning pair the old linear scan returned.
func findSpanning(n int, at time.Time, timeAt func(int) time.Time) (int, error) {
	if n < 2 {
		return 0, ErrNoPairCovers
	}
	i := sort.Search(n, func(j int) bool { return !timeAt(j).Before(at) }) - 1
	if i < 0 {
		i = 0
	}
	if i+1 < n && !at.Before(timeAt(i)) && !at.After(timeAt(i+1)) {
		return i, nil
	}
	return 0, ErrNoPairCovers
}

// Open decrypts one entry with its disclosed key and checks internal
// consistency (public timestamp vs decrypted sample).
func Open(entry SealedSample, key []byte) (poa.Sample, error) {
	plaintext, err := sigcrypto.OpenGCM(key, entry.Nonce, entry.Ciphertext, nil)
	if err != nil {
		return poa.Sample{}, fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	s, err := poa.UnmarshalSample(plaintext)
	if err != nil {
		return poa.Sample{}, fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	if !s.Time.Equal(entry.Time) {
		return poa.Sample{}, ErrTimeMismatch
	}
	return s, nil
}

// JudgeAccusation is the Auditor-side resolution: open the two disclosed
// entries, verify their TEE signatures, and decide whether the pair proves
// the drone could not have been in zone z during the gap. It returns true
// for a proven alibi (compliant) and false when the pair cannot rule out
// presence. teePub is any suite-registry verification key (sigcrypto.WrapRSA
// adapts a raw *rsa.PublicKey), so Ed25519 fleets can use sealed and commit
// modes.
func JudgeAccusation(e1, e2 SealedSample, k1, k2 []byte, teePub sigcrypto.PublicKey, z geo.GeoCircle, vmaxMS float64, mode poa.TestMode) (bool, error) {
	s1, err := Open(e1, k1)
	if err != nil {
		return false, fmt.Errorf("open first entry: %w", err)
	}
	s2, err := Open(e2, k2)
	if err != nil {
		return false, fmt.Errorf("open second entry: %w", err)
	}
	if err := teePub.Verify(s1.Marshal(), e1.Sig); err != nil {
		return false, fmt.Errorf("first entry: %w", err)
	}
	if err := teePub.Verify(s2.Marshal(), e2.Sig); err != nil {
		return false, fmt.Errorf("second entry: %w", err)
	}
	if !s2.Time.After(s1.Time) {
		return false, poa.ErrNotChronological
	}
	return poa.PairSufficient(s1, s2, z, vmaxMS, mode), nil
}
