package auditor

// Crash-recovery tests for the WAL-backed server: every record type
// replays, recovery from any prefix of the log lands on the last
// committed mutation (kill-point cuts at and inside record boundaries),
// and time-based expiry schedules survive a restart.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
)

// mutableClock is a settable obs.Clock shared across restarts.
type mutableClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *mutableClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *mutableClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}

// openStoreServer opens (or recovers) a WAL-backed server in dir.
func openStoreServer(t *testing.T, dir string, cfg Config) (*Server, storage.Store) {
	t.Helper()
	st, err := storage.OpenFileStore(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := OpenServer(cfg, st, "")
	if err != nil {
		_ = st.Close()
		t.Fatalf("OpenServer: %v", err)
	}
	return srv, st
}

func recoveryConfig(clock obs.Clock) Config {
	return Config{
		Clock:   clock,
		Metrics: obs.NewRegistry(nil),
		Random:  rand.New(rand.NewSource(42)),
	}
}

// mutateAll drives one committed mutation of every WAL record type except
// the purge (the caller controls the clock for that): drone registration,
// zone registration through both the protocol endpoint and the exposed
// registry, 3-D zone registration, a nonce-consuming zone query, and a
// compliant PoA submission (retention + replay digest). It returns the
// drone identity and the signed query + ciphertext for replay probes.
func mutateAll(t *testing.T, srv *Server) (id string, keys droneKeys, query protocol.ZoneQueryRequest, ct []byte) {
	t.Helper()
	id, keys = registerRecoveryDrone(t, srv)
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "alice",
		Zone:  geo.GeoCircle{Center: urbana, R: 200},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Zones().Register("bob", geo.GeoCircle{Center: urbana.Offset(90, 3000), R: 150}); err != nil {
		t.Fatal(err)
	}

	// A commit-mode drone with a retained commitment (WAL record kind 9).
	cid, ckeys := registerDisclosureDrone(t, srv, rand.New(rand.NewSource(46)), poa.DisclosureCommit)
	cp := signedTrace(t, ckeys, urbana.Offset(90, 60000), 0, 10, 5, time.Second)
	cct, _, _ := commitSubmission(t, srv, ckeys, cp)
	if resp, err := srv.SubmitCommitPoA(protocol.SubmitCommitPoARequest{DroneID: cid, EncryptedEnvelope: cct}); err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("commit submit: %v / %+v", err, resp)
	}

	nonce, err := protocol.NewNonce(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	query = protocol.ZoneQueryRequest{
		DroneID: id,
		Area:    geo.NewRect(urbana.Offset(225, 5000), urbana.Offset(45, 5000)),
		Nonce:   nonce,
	}
	if err := protocol.SignZoneQuery(&query, keys.op); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ZoneQuery(query); err != nil {
		t.Fatal(err)
	}

	// A trace far from every registered zone: trivially compliant, so it
	// is retained and its digest claimed.
	p := signedTrace(t, keys, urbana.Offset(0, 50000), 90, 10, 10, time.Second)
	ct = encryptFor(t, srv, p)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("submit: %v / %+v", err, resp)
	}
	return id, keys, query, ct
}

// registerRecoveryDrone registers one drone with deterministic keypairs
// on an already-open server.
func registerRecoveryDrone(t *testing.T, srv *Server) (string, droneKeys) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	op, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	tee, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&op.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	teePub, err := sigcrypto.MarshalPublicKey(&tee.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		t.Fatal(err)
	}
	return resp.DroneID, droneKeys{op: op, tee: tee}
}

func TestOpenServerRecoversAllRecordTypes(t *testing.T) {
	dir := t.TempDir()
	clock := &mutableClock{t: t0}
	srv, st := openStoreServer(t, dir, recoveryConfig(clock))
	id, keys, query, ct := mutateAll(t, srv)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover with no explicit checkpoint: everything after the initial
	// snapshot lives only in the WAL tail.
	srv2, st2 := openStoreServer(t, dir, recoveryConfig(clock))
	defer st2.Close()

	status := srv2.Status()
	if status.Drones != 2 || status.Zones != 2 || status.RetainedPoAs != 1 || status.Commitments != 1 {
		t.Fatalf("recovered status = %+v, want 2 drones / 2 zones / 1 retained / 1 commitment", status)
	}
	// The nonce claim survived: replaying the signed query is rejected.
	if _, err := srv2.ZoneQuery(query); !errors.Is(err, protocol.ErrBadNonce) {
		t.Errorf("nonce replay after recovery err = %v, want ErrBadNonce", err)
	}
	// The replay digest survived: the old ciphertext still decrypts (the
	// encryption key came back) and is rejected as a replay.
	resp, err := srv2.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Errorf("PoA replay after recovery verdict = %v, want violation", resp.Verdict)
	}
	// The recovered server keeps working: a fresh submission from the
	// registered drone verifies under the restored TEE key.
	p2 := signedTrace(t, keys, urbana.Offset(0, 60000), 45, 10, 10, time.Second)
	resp, err = srv2.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv2, p2)})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("fresh submit after recovery: %v / %+v", err, resp)
	}
}

// walFrames parses a WAL segment into record kinds and their end offsets,
// mirroring the storage framing ([4B len][4B crc][kind+payload]).
func walFrames(t *testing.T, path string) (kinds []byte, ends []int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	for int(off)+8 <= len(data) {
		length := binary.LittleEndian.Uint32(data[off : off+4])
		end := off + 8 + int64(length)
		if int(end) > len(data) {
			break
		}
		kinds = append(kinds, data[off+8])
		ends = append(ends, end)
		off = end
	}
	if int(off) != len(data) {
		t.Fatalf("segment %s has %d trailing bytes", path, len(data)-int(off))
	}
	return kinds, ends
}

// activeSegment returns the highest-numbered WAL segment in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no WAL segments in %s (err=%v)", dir, err)
	}
	best := matches[0]
	for _, m := range matches[1:] {
		if m > best {
			best = m
		}
	}
	return best
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o700); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryKillPoints is the crash-recovery property test: the WAL is
// cut after every record boundary — and mid-record — and recovery must
// land exactly on the state after the last committed mutation.
func TestRecoveryKillPoints(t *testing.T) {
	dir := t.TempDir()
	clock := &mutableClock{t: t0}
	srv, st := openStoreServer(t, dir, recoveryConfig(clock))
	mutateAll(t, srv)
	// Advance past the nonce TTL and purge, so a recPurge record is in
	// the stream too.
	clock.Set(t0.Add(2 * time.Hour))
	srv.PurgeExpired()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	seg := activeSegment(t, dir)
	kinds, ends := walFrames(t, seg)
	if len(kinds) < 7 {
		t.Fatalf("expected >= 7 WAL records, got %d (kinds %v)", len(kinds), kinds)
	}

	// Expected store sizes after replaying the first k records onto the
	// initial (empty) snapshot.
	type counts struct{ drones, zones, retained, commitments int }
	expect := make([]counts, len(kinds)+1)
	for k, kind := range kinds {
		c := expect[k]
		switch kind {
		case recDroneRegistered:
			c.drones++
		case recZoneRegistered:
			c.zones++
		case recPoARetained:
			c.retained++
		case recDisclosureRetained:
			c.commitments++
		}
		expect[k+1] = c
	}

	check := func(name string, cutAt int64, want counts) {
		t.Helper()
		cut := filepath.Join(t.TempDir(), "cut")
		copyDir(t, dir, cut)
		if err := os.Truncate(filepath.Join(cut, filepath.Base(seg)), cutAt); err != nil {
			t.Fatal(err)
		}
		srv2, st2 := openStoreServer(t, cut, recoveryConfig(clock))
		defer st2.Close()
		got := srv2.Status()
		if got.Drones != want.drones || got.Zones != want.zones || got.RetainedPoAs != want.retained ||
			got.Commitments != want.commitments {
			t.Errorf("%s: recovered %+v, want %+v", name, got, want)
		}
	}

	// Cut 0: nothing committed.
	check("cut@0", 0, expect[0])
	for k, end := range ends {
		// Exactly at the boundary: records 0..k are committed.
		check(kindName(kinds[k])+"/boundary", end, expect[k+1])
		// Mid-record: the torn frame of record k+1 (or trailing garbage)
		// must be discarded, landing on the same committed prefix.
		if k+1 < len(ends) {
			check(kindName(kinds[k+1])+"/torn", end+5, expect[k+1])
		}
	}

	// A repaired log accepts new appends: cut inside the last record,
	// recover, mutate, and recover again.
	cut := filepath.Join(t.TempDir(), "repair")
	copyDir(t, dir, cut)
	if err := os.Truncate(filepath.Join(cut, filepath.Base(seg)), ends[len(ends)-1]-3); err != nil {
		t.Fatal(err)
	}
	srv2, st2 := openStoreServer(t, cut, recoveryConfig(clock))
	if _, err := srv2.Zones().Register("dave", geo.GeoCircle{Center: urbana.Offset(270, 4000), R: 60}); err != nil {
		t.Fatal(err)
	}
	wantZones := srv2.Status().Zones
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	srv3, st3 := openStoreServer(t, cut, recoveryConfig(clock))
	defer st3.Close()
	if got := srv3.Status().Zones; got != wantZones {
		t.Errorf("zones after repair+append+recover = %d, want %d", got, wantZones)
	}
}

func kindName(k byte) string {
	switch k {
	case recDroneRegistered:
		return "drone"
	case recZoneRegistered:
		return "zone"
	case recPoARetained:
		return "retained"
	case recNonceSeen:
		return "nonce"
	case recDigestClaimed:
		return "digest"
	case recPurge:
		return "purge"
	case recDisclosureRetained:
		return "disclosure"
	}
	return "unknown"
}

// TestDisclosureRetentionSurvivesRestart pins the WAL round-trip of a
// retained commitment (record kind 9): after a crash and recovery, an
// accusation over the restored Times still opens a challenge, and a
// reveal verifies against the restored Root and KeyEpoch and settles it.
func TestDisclosureRetentionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	clock := &mutableClock{t: t0}
	srv, st := openStoreServer(t, dir, recoveryConfig(clock))

	id, keys := registerDisclosureDrone(t, srv, rand.New(rand.NewSource(47)), poa.DisclosureCommit)
	p := signedTrace(t, keys, urbana, 0, 10, 10, time.Second)
	ct, sealed, otKeys := commitSubmission(t, srv, keys, p)
	if resp, err := srv.SubmitCommitPoA(protocol.SubmitCommitPoARequest{DroneID: id, EncryptedEnvelope: ct}); err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("commit submit: %v / %+v", err, resp)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := openStoreServer(t, dir, recoveryConfig(clock))
	defer st2.Close()
	if got := srv2.Status().Commitments; got != 1 {
		t.Fatalf("recovered commitments = %d, want 1", got)
	}

	zoneID, err := srv2.Zones().Register("alice", geo.GeoCircle{Center: urbana.Offset(0, 50), R: 100})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := srv2.HandleAccusation(id, zoneID, t0.Add(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if acc.Verdict != protocol.VerdictDisclosureRequired || acc.Challenge == nil {
		t.Fatalf("post-recovery accusation = %+v, want disclosure-required", acc)
	}
	secrets := &operator.DisclosureSecrets{Mode: poa.DisclosureCommit, Sealed: sealed, Keys: otKeys}
	req, err := secrets.Answer(*acc.Challenge)
	if err != nil {
		t.Fatal(err)
	}
	final, err := srv2.Reveal(req)
	if err != nil {
		t.Fatal(err)
	}
	if final.Verdict != protocol.VerdictViolation {
		t.Errorf("post-recovery reveal verdict = %+v, want violation", final)
	}
}

// TestExpirySchedulesSurviveRestart pins the recovery semantics of
// time-based state: nonce and replay-digest expiry run on the schedule
// established before the crash, and a logged purge replays with its
// commit-time cutoffs.
func TestExpirySchedulesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	clock := &mutableClock{t: t0}
	cfg := recoveryConfig(clock)
	cfg.NonceTTL = time.Hour
	cfg.Retention = 2 * time.Hour

	srv, st := openStoreServer(t, dir, cfg)
	id, _, query, ct := mutateAll(t, srv)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart mid-TTL: both caches still reject replays — the first-seen
	// times recovered, not reset to the restart instant.
	clock.Set(t0.Add(30 * time.Minute))
	srv, st = openStoreServer(t, dir, cfg)
	if _, err := srv.ZoneQuery(query); !errors.Is(err, protocol.ErrBadNonce) {
		t.Fatalf("nonce replay at t0+30m: err = %v, want ErrBadNonce", err)
	}
	if resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct}); err != nil || resp.Verdict != protocol.VerdictViolation {
		t.Fatalf("PoA replay at t0+30m: %v / %+v", err, resp)
	}

	// Past the nonce TTL the original nonce frees up again.
	clock.Set(t0.Add(61 * time.Minute))
	srv.PurgeExpired()
	if _, err := srv.ZoneQuery(query); err != nil {
		t.Fatalf("nonce reuse after TTL: %v", err)
	}

	// Past the retention window the digest and the retained PoA expire,
	// so the identical trace is acceptable (and retained) again.
	clock.Set(t0.Add(2*time.Hour + time.Second))
	srv.PurgeExpired()
	if got := srv.Status().RetainedPoAs; got != 0 {
		t.Fatalf("retained after purge = %d, want 0", got)
	}
	if resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct}); err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("resubmit after expiry: %v / %+v", err, resp)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Final restart: the purges replayed with their original cutoffs, so
	// exactly the re-retained PoA is present — not the expired one too.
	srv, st = openStoreServer(t, dir, cfg)
	defer st.Close()
	if got := srv.Status().RetainedPoAs; got != 1 {
		t.Errorf("retained after final recovery = %d, want 1", got)
	}
}

// TestZoneQueryInvalidAreaKeepsNonce: a correctly signed query over a
// malformed area is refused before its nonce is claimed or logged, so the
// operator can resend the same signed nonce with the area fixed.
func TestZoneQueryInvalidAreaKeepsNonce(t *testing.T) {
	srv, st := openStoreServer(t, t.TempDir(), recoveryConfig(&mutableClock{t: t0}))
	defer st.Close()
	id, keys := registerRecoveryDrone(t, srv)
	nonce, err := protocol.NewNonce(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	req := protocol.ZoneQueryRequest{DroneID: id, Nonce: nonce,
		Area: geo.Rect{MinLat: 41, MaxLat: 40, MinLon: -89, MaxLon: -88}} // min > max
	if err := protocol.SignZoneQuery(&req, keys.op); err != nil {
		t.Fatal(err)
	}
	logged := srv.WALSince()
	if _, err := srv.ZoneQuery(req); err == nil {
		t.Fatal("invalid area accepted")
	}
	if got := srv.nonces.len(); got != 0 {
		t.Errorf("malformed query claimed %d nonce(s)", got)
	}
	if got := srv.WALSince(); got != logged {
		t.Errorf("malformed query appended %d WAL record(s)", got-logged)
	}
	req.Area = geo.NewRect(urbana.Offset(225, 5000), urbana.Offset(45, 5000))
	if _, err := srv.ZoneQuery(req); err != nil {
		t.Errorf("same nonce with the area fixed: %v", err)
	}
}

// TestRecoveryKeepsRecordsLoggedOutOfSeqOrder is the regression test for
// the retention-replay defect: add stamps a record's Seq before its WAL
// append, so two concurrent commits can reach the log in the reverse of
// their Seq order, and a replay that skipped everything at or below the
// highest Seq seen dropped the earlier — acknowledged — flight.
func TestRecoveryKeepsRecordsLoggedOutOfSeqOrder(t *testing.T) {
	dir := t.TempDir()
	clock := &mutableClock{t: t0}
	srv, st := openStoreServer(t, dir, recoveryConfig(clock))
	// Stamp Seq 1 then 2 as two in-flight commits would, and let the
	// second reach the log first.
	p1, _ := srv.retained.add(retainedPoA{DroneID: "drone-a", SubmitTime: t0})
	p2, _ := srv.retained.add(retainedPoA{DroneID: "drone-b", SubmitTime: t0})
	d1, _ := srv.disclosures.add(retainedDisclosure{DroneID: "drone-a", Mode: poa.DisclosureCommit, SubmitTime: t0})
	d2, _ := srv.disclosures.add(retainedDisclosure{DroneID: "drone-b", Mode: poa.DisclosureCommit, SubmitTime: t0})
	ctx := context.Background()
	for _, err := range []error{
		srv.wal(ctx, recPoARetained, p2),
		srv.wal(ctx, recPoARetained, p1),
		srv.wal(ctx, recDisclosureRetained, d2),
		srv.wal(ctx, recDisclosureRetained, d1),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv, st = openStoreServer(t, dir, recoveryConfig(clock))
	for _, drone := range []string{"drone-a", "drone-b"} {
		if got := len(srv.retained.byDrone(drone)); got != 1 {
			t.Errorf("%s: %d retained PoAs after replay, want 1", drone, got)
		}
		if got := len(srv.disclosures.byDrone(drone)); got != 1 {
			t.Errorf("%s: %d retained disclosures after replay, want 1", drone, got)
		}
	}
	// Snapshot-overlap idempotence still holds: a checkpoint that already
	// contains the four records, followed by a replay of the same tail,
	// must not duplicate them; and a new record gets a fresh Seq.
	for _, rec := range []struct {
		kind byte
		v    any
	}{{recPoARetained, p1}, {recDisclosureRetained, d2}} {
		data, err := json.Marshal(rec.v)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.applyRecord(storage.Record{Kind: rec.kind, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.retained.len() + srv.disclosures.len(); got != 4 {
		t.Errorf("%d records after replaying duplicates, want 4", got)
	}
	if p3, _ := srv.retained.add(retainedPoA{DroneID: "drone-c", SubmitTime: t0}); p3.Seq != 3 {
		t.Errorf("next Seq after restore = %d, want 3", p3.Seq)
	}
	// Purge replay: a logged purge removes the replayed records again.
	data, _ := json.Marshal(walPurge{Cutoff: t0, Now: t0})
	if err := srv.applyRecord(storage.Record{Kind: recPurge, Data: data}); err != nil {
		t.Fatal(err)
	}
	if got := srv.retained.len() + srv.disclosures.len(); got != 0 {
		t.Errorf("%d records survive a purge at their submit time, want 0", got)
	}
	st.Close()
}

// TestStateEquivalenceAcrossRestorePaths is the one-schema property: the
// log, the snapshot and the handoff are the same records read by the same
// applyRecord, so a state holding every persistent record kind — a ring
// rotated twice, a sealed and a commit retention included — rebuilds to
// the same export from the WAL alone, from a snapshot alone, from a
// snapshot under a tail that repeats all of it, and (the key and the
// shard-local Seq aside) on a peer that received it as a handoff.
func TestStateEquivalenceAcrossRestorePaths(t *testing.T) {
	ctx := context.Background()
	clock := &mutableClock{t: t0}
	mem := storage.NewMemStore()
	cfg := recoveryConfig(clock)
	cfg.CompactEvery = -1 // the log keeps every record of this test
	srv, err := OpenServer(cfg, mem, "")
	if err != nil {
		t.Fatal(err)
	}
	mutateAll(t, srv)
	sid, skeys := registerDisclosureDrone(t, srv, rand.New(rand.NewSource(47)), poa.DisclosureSealed)
	sct, _, _ := sealedSubmission(t, srv, signedTrace(t, skeys, urbana.Offset(90, 60000), 0, 10, 5, time.Second))
	if resp, err := srv.SubmitSealedPoA(protocol.SubmitSealedPoARequest{DroneID: sid, EncryptedPoA: sct}); err != nil || resp.Verdict != protocol.VerdictRetained {
		t.Fatalf("sealed submit: %v / %+v", err, resp)
	}
	rid, rkeys := registerSuiteDrone(t, srv, sigcrypto.SuiteEd25519, rand.New(rand.NewSource(44)))
	outgoing := rkeys.tee
	for epoch := 0; epoch < 2; epoch++ {
		clock.Set(t0.Add(time.Duration(epoch+1) * time.Minute))
		next := newSuiteKey(t, sigcrypto.SuiteEd25519, int64(14+epoch))
		h := signedHandover(t, rid, epoch, outgoing, next.Public(), clock.Now())
		if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: rid, Handover: h}); err != nil {
			t.Fatal(err)
		}
		outgoing = next
	}

	want, err := srv.exportRecords(false)
	if err != nil {
		t.Fatal(err)
	}
	firstSnap, log, err := mem.Recover()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]bool{}
	for _, rec := range log {
		kinds[rec.Kind] = true
	}
	for k := recDroneRegistered; k <= recDisclosureRetained; k++ {
		if k != recPurge && k != 3 && !kinds[k] { // kind 3 is retired
			t.Fatalf("the scenario logged no %s record", walKindName(k))
		}
	}

	for name, c := range map[string]struct {
		snap []byte
		tail []storage.Record
	}{
		"WAL only":                        {firstSnap, log},
		"snapshot only":                   {want, nil},
		"snapshot + overlapping WAL tail": {want, log},
	} {
		st := storage.NewMemStore()
		if err := st.Snapshot(func() ([]byte, error) { return c.snap, nil }); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(ctx, c.tail...); err != nil {
			t.Fatal(err)
		}
		restored, err := OpenServer(recoveryConfig(clock), st, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, err := restored.exportRecords(false); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: export differs from the live server's (err %v)\n%s", name, err, diffRecords(t, got, want))
		}
	}

	// Handoff: a single-node, single-shard router owns every drone.
	wantHandoff, err := srv.exportRecords(true)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewRouter(RouterConfig{
		Self:   cluster.Node{ID: "node-b"},
		Server: Config{Clock: clock, EncryptionKey: srv.EncryptionKey()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := peer.clusterHandoff(ctx, protocol.ClusterHandoffRequest{From: "node-a", MapVersion: 1, State: wantHandoff}); err != nil {
		t.Fatal(err)
	}
	if got, err := peer.Shard(0).exportRecords(true); err != nil || !bytes.Equal(got, wantHandoff) {
		t.Errorf("handoff: the peer's export differs from the source's (err %v)\n%s", err, diffRecords(t, got, wantHandoff))
	}
}

// diffRecords renders the first record at which two streams part.
func diffRecords(t *testing.T, got, want []byte) string {
	t.Helper()
	g, err := storage.DecodeRecords(got)
	if err != nil {
		return "got: " + err.Error()
	}
	w, err := storage.DecodeRecords(want)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i].Kind != w[i].Kind || !bytes.Equal(g[i].Data, w[i].Data) {
			return fmt.Sprintf("record %d:\n got %s %s\nwant %s %s", i, walKindName(g[i].Kind), g[i].Data, walKindName(w[i].Kind), w[i].Data)
		}
	}
	return fmt.Sprintf("got %d records, want %d", len(g), len(w))
}

// TestOpenServerRejectsBitRotInSnapshot: the snapshot is framed and
// checksummed like the log, so one flipped bit anywhere in the file — a
// length, a checksum, the inside of a base64 key, where the old JSON file
// would have loaded as different state — fails recovery with ErrCorrupt.
func TestOpenServerRejectsBitRotInSnapshot(t *testing.T) {
	dir := t.TempDir()
	clock := &mutableClock{t: t0}
	srv, st := openStoreServer(t, dir, recoveryConfig(clock))
	mutateAll(t, srv)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots in %s: %v (err %v), want exactly one", dir, snaps, err)
	}
	clean, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	for off := 3; off < len(clean); off += len(clean) / 7 {
		rotten := append([]byte(nil), clean...)
		rotten[off] ^= 0x10
		if err := os.WriteFile(snaps[0], rotten, 0o600); err != nil {
			t.Fatal(err)
		}
		fs, err := storage.OpenFileStore(dir, storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := OpenServer(recoveryConfig(clock), fs, ""); !errors.Is(err, storage.ErrCorrupt) || got != nil {
			t.Errorf("bit flipped at offset %d of %d: server %v, err %v; want ErrCorrupt and no server", off, len(clean), got != nil, err)
		}
		fs.Close()
	}
	if err := os.WriteFile(snaps[0], clean, 0o600); err != nil {
		t.Fatal(err)
	}
	restored, st := openStoreServer(t, dir, recoveryConfig(clock))
	defer st.Close()
	if restored.Status() != srv.Status() {
		t.Errorf("restored from the clean file: %+v, want %+v", restored.Status(), srv.Status())
	}
}
