package auditor

import (
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/zone"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	srv, droneID, keys := newFixture(t)
	zoneID, err := srv.Zones().Register("alice", geo.GeoCircle{Center: urbana.Offset(0, 5000), R: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterZone3D("bob", poa.CylinderZone{Center: urbana.Offset(0, 8000), R: 50, AltMax: 120}); err != nil {
		t.Fatal(err)
	}

	// Submit a compliant PoA so retention + replay state is non-trivial.
	p := signedTrace(t, keys, urbana, 90, 10, 30, time.Second)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("submit: %v / %v", err, resp.Verdict)
	}

	path := filepath.Join(t.TempDir(), "auditor-state.json")
	if err := srv.SaveState(path); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadServer(Config{
		Random: rand.New(rand.NewSource(1)),
		Clock:  obs.ClockFunc(func() time.Time { return t0 }),
	}, path)
	if err != nil {
		t.Fatal(err)
	}

	// The encryption key survives: old ciphertext still decrypts, so a
	// resubmission is caught as a replay.
	resp, err = restored.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Errorf("replay after restore verdict = %v, want violation", resp.Verdict)
	}

	// Registered drone and zones survive.
	if restored.RetainedCount() != 1 {
		t.Errorf("retained after restore = %d, want 1", restored.RetainedCount())
	}
	if _, ok := restored.Zones().Get(zoneID); !ok {
		t.Error("zone lost across restore")
	}
	if len(restored.Zones3D()) != 1 {
		t.Error("3-D zone lost across restore")
	}

	// Accusations still answerable from the restored retention store.
	acc, err := restored.HandleAccusation(droneID, zoneID, t0.Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if acc.Verdict != protocol.VerdictCompliant {
		t.Errorf("accusation after restore = %v", acc.Verdict)
	}

	// New registrations continue the ID sequences without collisions.
	id2, err := restored.Zones().Register("carol", geo.GeoCircle{Center: urbana.Offset(90, 5000), R: 50})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == zoneID {
		t.Error("zone ID sequence restarted")
	}
}

func TestLoadServerErrors(t *testing.T) {
	if _, err := LoadServer(Config{}, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing state file accepted")
	}
}

// keyRecord returns the record that closes every snapshot of srv.
func keyRecord(t testing.TB, srv *Server) storage.Record {
	t.Helper()
	data, err := srv.exportRecords(false)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := storage.DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	return recs[len(recs)-1]
}

// TestLoadServerRejectsCorruptSnapshots feeds damaged snapshot streams to
// the loader, whole-file damage first and then one malformed payload per
// record kind: every one must come back as a clean error — no panic, no
// half-restored server.
func TestLoadServerRejectsCorruptSnapshots(t *testing.T) {
	srv, _, _ := newFixture(t)
	valid, err := srv.exportRecords(false)
	if err != nil {
		t.Fatal(err)
	}
	key := keyRecord(t, srv)
	frames := func(recs ...storage.Record) []byte {
		data, err := storage.EncodeRecords(recs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// stream closes the records with the valid key record, so only the
	// record under test can be what the loader objects to.
	stream := func(recs ...storage.Record) []byte { return frames(append(recs, key)...) }
	rec := func(kind byte, payload string) storage.Record {
		return storage.Record{Kind: kind, Data: []byte(payload)}
	}
	zoneRec := rec(recZoneRegistered, `{"id":"zone-0001","circle":{"center":{"lat":40,"lon":-88},"r":100}}`)
	if _, err := restoreServer(Config{}, stream(zoneRec)); err != nil {
		t.Fatalf("control stream rejected: %v", err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01

	cases := map[string][]byte{
		"empty":              {},
		"garbage":            []byte("\x00\xff\x1fnot a record stream"),
		"json state file":    []byte(`{"encKey":"AAAA","drones":[]}`),
		"truncated":          valid[:len(valid)/2],
		"flipped bit":        flipped,
		"cut before the key": frames(zoneRec),
		"key not last":       frames(key, zoneRec),
		"bad key":            stream(rec(recEncKey, `{"encKey":"AAAA"}`)),
		"unknown kind":       stream(rec(200, `{}`)),

		"drone: bad keys":       stream(rec(recDroneRegistered, `{"id":"drone-0001","operatorPub":"!!","teePub":"!!"}`)),
		"drone: not json":       stream(rec(recDroneRegistered, `[1,2,3]`)),
		"zone: bad geometry":    stream(rec(recZoneRegistered, `{"id":"zone-0001","circle":{"center":{"lat":400,"lon":0},"r":-1}}`)),
		"zone3d: not json":      stream(rec(recZone3DRegistered, `"zone3d-0001"`)),
		"retained: not json":    stream(rec(recPoARetained, `{"droneId":7}`)),
		"nonce: not json":       stream(rec(recNonceSeen, `{"seen":"yesterday"}`)),
		"digest: not hex":       stream(rec(recDigestClaimed, `{"digest":"zz","seen":"2018-06-01T15:00:00Z"}`)),
		"digest: short":         stream(rec(recDigestClaimed, `{"digest":"00ff","seen":"2018-06-01T15:00:00Z"}`)),
		"purge: not json":       stream(rec(recPurge, `{"cutoff":1}`)),
		"rotation: no drone":    stream(rec(recKeyRotated, `{"droneId":"drone-0404","newEpoch":1,"newPub":"`+marshalledTEEPub(t, srv)+`"}`)),
		"rotation: bad key":     stream(rec(recKeyRotated, `{"droneId":"drone-0001","newEpoch":1,"newPub":"!!"}`)),
		"disclosure: not json":  stream(rec(recDisclosureRetained, `{"times":"noon"}`)),
		"drone: suite mismatch": stream(rec(recDroneRegistered, `{"id":"drone-0001","operatorPub":"`+marshalledTEEPub(t, srv)+`","teePub":"`+marshalledTEEPub(t, srv)+`","suite":"ed25519"}`)),
	}
	for name, data := range cases {
		if got, err := restoreServer(Config{Random: rand.New(rand.NewSource(1))}, data); err == nil || got != nil {
			t.Errorf("%s: accepted (server %v, err %v)", name, got != nil, err)
		}
	}
}

// marshalledTEEPub renders the fixture drone's TEE key as records carry it.
func marshalledTEEPub(t testing.TB, srv *Server) string {
	t.Helper()
	rec, ok := srv.drones.get("drone-0001")
	if !ok {
		t.Fatal("fixture has no drone-0001")
	}
	pub, err := rec.ActiveKey().Pub.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// FuzzApplyRecord throws an arbitrary record — any kind, any payload — at
// the one decoder, between a valid registration (so drone-keyed kinds have
// a drone to land on) and the closing key record. Corrupt input yields an
// error and no server, never a panic; an accepted record yields a server
// that answers and can export its state again.
func FuzzApplyRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	encKey, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		f.Fatal(err)
	}
	// The fuzz loop reuses one key: restoring pays no keygen per exec.
	cfg := Config{EncryptionKey: encKey, Clock: obs.ClockFunc(func() time.Time { return t0 })}
	srv, err := NewServer(cfg)
	if err != nil {
		f.Fatal(err)
	}
	key := keyRecord(f, srv)
	pub, err := sigcrypto.MarshalPublicKey(&encKey.PublicKey)
	if err != nil {
		f.Fatal(err)
	}
	drone, err := encodeRecord(recDroneRegistered, walDrone{
		ID: "drone-0001", OperatorPub: pub, TEEPub: pub, Suite: sigcrypto.SuiteRSA1024, Disclosure: poa.DisclosureFull,
	})
	if err != nil {
		f.Fatal(err)
	}

	digest := strings.Repeat("ab", 32)
	for _, seed := range []struct {
		kind    byte
		payload any
	}{
		{recDroneRegistered, walDrone{ID: "drone-0002", OperatorPub: pub, TEEPub: pub, Suite: sigcrypto.SuiteRSA1024}},
		{recZoneRegistered, zone.NFZ{ID: "zone-0001", Circle: geo.GeoCircle{Center: urbana, R: 100}, Owner: "alice"}},
		{recZone3DRegistered, cylinderRecord{ID: "zone3d-0001", Owner: "bob", Zone: poa.CylinderZone{Center: urbana, R: 50, AltMax: 120}}},
		{recPoARetained, retainedPoA{DroneID: "drone-0001", Samples: []poa.Sample{{Pos: urbana, Time: t0}}, SubmitTime: t0, Seq: 1}},
		{recPoARetained, retainedPoA{DroneID: "drone-0001", SubmitTime: t0, Seq: ^uint64(0)}},
		{recNonceSeen, walNonce{Nonce: "n1", Seen: t0}},
		{recDigestClaimed, walDigest{Digest: digest, Seen: t0}},
		{recPurge, walPurge{Cutoff: t0, Now: t0}},
		{recKeyRotated, walRotation{DroneID: "drone-0001", NewEpoch: 1, NewPub: pub, RetiredAt: t0}},
		{recDisclosureRetained, retainedDisclosure{DroneID: "drone-0001", Mode: poa.DisclosureCommit, Times: []time.Time{t0}, Root: make([]byte, 32), SubmitTime: t0}},
	} {
		rec, err := encodeRecord(seed.kind, seed.payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec.Kind, rec.Data)
		f.Add(rec.Kind, rec.Data[:len(rec.Data)/2])
	}
	f.Add(key.Kind, key.Data)
	f.Add(byte(recZoneRegistered), []byte(`{"id":"zone-9999","circle":{"center":{"lat":1e308,"lon":-1e308},"r":1}}`))
	f.Add(byte(0), []byte("\x00\x01\x02garbage"))

	f.Fuzz(func(t *testing.T, kind byte, payload []byte) {
		data, err := storage.EncodeRecords([]storage.Record{drone, {Kind: kind, Data: payload}, key})
		if err != nil {
			t.Skip(err) // over the frame limit: not a stream the loader can be handed
		}
		srv, err := restoreServer(cfg, data)
		if err != nil {
			if srv != nil {
				t.Fatalf("error %v came with a server", err)
			}
			return
		}
		_ = srv.Status()
		if _, err := srv.exportRecords(false); err != nil {
			t.Fatalf("accepted record cannot be exported again: %v", err)
		}
	})
}

// TestEnvelopeKeyCheckedAtConstruction: an encryption key too small to
// receive an envelope stops the server from starting — configured,
// generated or recovered from a store — instead of failing every later
// submission.
func TestEnvelopeKeyCheckedAtConstruction(t *testing.T) {
	small, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(1)), 512)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sigcrypto.MarshalPrivateKey(small)
	if err != nil {
		t.Fatal(err)
	}
	smallKey, err := encodeRecord(recEncKey, walEncKey{EncKey: enc})
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := storage.EncodeRecords([]storage.Record{smallKey})
	if err != nil {
		t.Fatal(err)
	}
	recovered := storage.NewMemStore()
	if err := recovered.Snapshot(func() ([]byte, error) { return snapshot, nil }); err != nil {
		t.Fatal(err)
	}

	for name, start := range map[string]func() (*Server, error){
		"configured key": func() (*Server, error) { return NewServer(Config{EncryptionKey: small}) },
		"configured bits": func() (*Server, error) {
			return NewServer(Config{EncKeyBits: 512, Random: rand.New(rand.NewSource(2))})
		},
		"recovered key": func() (*Server, error) { return OpenServer(Config{}, recovered, "") },
	} {
		if srv, err := start(); !errors.Is(err, sigcrypto.ErrEnvelopeKeyTooSmall) || srv != nil {
			t.Errorf("%s: server %v, err = %v, want ErrEnvelopeKeyTooSmall", name, srv != nil, err)
		}
	}
	if _, err := NewServer(Config{EncKeyBits: sigcrypto.KeySize1024, Random: rand.New(rand.NewSource(3))}); err != nil {
		t.Errorf("1024-bit key refused: %v", err)
	}
}
