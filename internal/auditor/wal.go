package auditor

import (
	"context"
	"crypto/rsa"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/zone"
)

// The auditor's record schema — the only persistent representation of
// its state. Every durable state mutation — and only committed ones —
// emits exactly one typed record at its commit point:
//
//	drone registered, zone registered (circular or polygon-enclosed),
//	PoA retained, zone-query nonce claimed,
//	accepted-PoA replay digest claimed, retention purge, TEE key rotated,
//	sealed/commit disclosure retained.
//
// A snapshot is the shortest stream of the same records that rebuilds the
// state (exportRecords), closed by the one kind the log never carries, the
// PoA key pair; a cluster handoff ships that stream without the key.
// applyRecord is therefore the only decoder of state: snapshot restore,
// WAL-tail replay and handoff import all reach state through it, and only
// the closing key record is read apart (decodeEncKey). DESIGN.md §6
// tabulates the kinds.
//
// Sessions, open streams and disclosure challenges stay deliberately
// ephemeral. Replay-digest claims that *fail* verification are released
// before commit and never logged, so the log records the accepted history
// only.
//
// Replay is idempotent: applying a record whose effect is already present
// is a no-op (issued IDs are never reused, so a present ID is kept;
// retained records carry a monotonic sequence number; purges are
// cutoff-driven). That tolerance is what lets the storage engine capture
// snapshots concurrently with new appends — see internal/storage.
//
// Kind 3 (zone3d-registered, the §VII-B1 cylinders) is retired: no binary
// ever wrote it, it is never reused, and applyRecord rejects it as an
// unknown kind.
const (
	recDroneRegistered    byte = 1
	recZoneRegistered     byte = 2
	recPoARetained        byte = 4
	recNonceSeen          byte = 5
	recDigestClaimed      byte = 6
	recPurge              byte = 7
	recKeyRotated         byte = 8
	recDisclosureRetained byte = 9
	recEncKey             byte = 10
)

// DefaultCompactEvery is the number of WAL records between automatic
// snapshot compactions when Config.CompactEvery is zero.
const DefaultCompactEvery = 4096

// walDrone is the payload of recDroneRegistered: the registration as
// accepted, with the epoch-0 TEE key. Later epochs are recKeyRotated
// records, in a snapshot as in the log.
type walDrone struct {
	ID          string `json:"id"`
	OperatorPub string `json:"operatorPub"`
	TEEPub      string `json:"teePub"`
	Suite       string `json:"suite,omitempty"`
	Disclosure  string `json:"disclosure,omitempty"`
}

// walRotation is the payload of recKeyRotated: the accepted handover's
// effect (new active key, retirement instant of the old one). The
// handover itself was already verified at commit time, so replay applies
// the outcome without re-checking signatures.
type walRotation struct {
	DroneID   string    `json:"droneId"`
	OldEpoch  int       `json:"oldEpoch"`
	NewEpoch  int       `json:"newEpoch"`
	NewPub    string    `json:"newPub"`
	RetiredAt time.Time `json:"retiredAt"`
}

// walPurge is the payload of recPurge: the sweep is replayed with the
// cutoffs computed at commit time, not recovery time, so a restart keeps
// expiring retained PoAs, digests and nonces on the original schedule.
type walPurge struct {
	Cutoff time.Time `json:"cutoff"` // retention cutoff (PoAs + digests)
	Now    time.Time `json:"now"`    // sweep instant (nonce TTL)
}

// walNonce is the payload of recNonceSeen: one zone-query nonce with its
// first-seen time, so a restored server keeps expiring it on schedule.
type walNonce struct {
	Nonce string    `json:"nonce"`
	Seen  time.Time `json:"seen"`
}

// walDigest is the payload of recDigestClaimed: one replay-detection
// digest (hex) with its claim time.
type walDigest struct {
	Digest string    `json:"digest"`
	Seen   time.Time `json:"seen"`
}

// walEncKey is the payload of recEncKey: the PoA-encryption key pair. It
// closes every snapshot (so the file must be protected like a key file)
// and appears nowhere else — never in the log, never in a handoff.
type walEncKey struct {
	EncKey string `json:"encKey"`
}

// recordKindNames names each record kind for trace attributes and errors.
var recordKindNames = [...]string{
	recDroneRegistered:    "drone-registered",
	recZoneRegistered:     "zone-registered",
	recPoARetained:        "poa-retained",
	recNonceSeen:          "nonce-seen",
	recDigestClaimed:      "digest-claimed",
	recPurge:              "purge",
	recKeyRotated:         "key-rotated",
	recDisclosureRetained: "disclosure-retained",
	recEncKey:             "enc-key",
}

func walKindName(kind byte) string {
	if int(kind) < len(recordKindNames) && recordKindNames[kind] != "" {
		return recordKindNames[kind]
	}
	return fmt.Sprintf("kind-%d", kind)
}

// wal appends one typed record to the attached store, durable at return.
// With no store attached it is a no-op. The append runs under a
// "wal.append" child span of whatever the context carries, so a traced
// submission shows its durability cost (and group-commit role — see
// FileStore.Append). Crossing the compaction threshold triggers an
// inline snapshot compaction (one writer pays the amortised cost;
// concurrent writers skip past the CAS).
func (s *Server) wal(ctx context.Context, kind byte, v any) error {
	if s.store == nil {
		return nil
	}
	wctx, sp := s.cfg.Tracer.StartSpan(ctx, "wal.append")
	sp.SetAttr("kind", walKindName(kind))
	rec, err := encodeRecord(kind, v)
	if err == nil {
		err = s.store.Append(wctx, rec)
	}
	sp.SetError(err)
	sp.End()
	if err != nil {
		s.cfg.Metrics.Counter(MetricWALErrorsTotal).Inc()
		return fmt.Errorf("auditor: wal append: %w", err)
	}
	if n := s.walSince.Add(1); n >= s.compactEvery && s.compacting.CompareAndSwap(false, true) {
		defer s.compacting.Store(false)
		if err := s.Checkpoint(); err != nil {
			s.cfg.Metrics.Counter(MetricWALErrorsTotal).Inc()
		}
	}
	return nil
}

// encodeRecord builds one record of the schema above from its payload.
func encodeRecord(kind byte, v any) (storage.Record, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return storage.Record{}, fmt.Errorf("encode %s record: %w", walKindName(kind), err)
	}
	return storage.Record{Kind: kind, Data: data}, nil
}

// Checkpoint writes a compacted snapshot through the attached store,
// truncating the WAL it covers. No-op without a store.
func (s *Server) Checkpoint() error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Snapshot(func() ([]byte, error) { return s.exportRecords(false) }); err != nil {
		return fmt.Errorf("auditor: checkpoint: %w", err)
	}
	s.walSince.Store(0)
	return nil
}

// attachStore wires the storage engine into the server's mutation
// points. Called once, before the server starts serving.
func (s *Server) attachStore(st storage.Store) {
	s.store = st
	s.compactEvery = uint64(DefaultCompactEvery)
	switch {
	case s.cfg.CompactEvery > 0:
		s.compactEvery = uint64(s.cfg.CompactEvery)
	case s.cfg.CompactEvery < 0:
		s.compactEvery = ^uint64(0) // never auto-compact
	}
	// Zones can be registered through the exposed registry as well as the
	// protocol endpoint; the registry hook catches both paths.
	// The registry hook has no request context to inherit; zone
	// registrations log under their own (unparented) WAL span.
	s.zones.SetOnAdd(func(z zone.NFZ) error {
		return s.wal(context.Background(), recZoneRegistered, z)
	})
}

// applyRecord applies one record to the in-memory state. Every branch is
// idempotent over state the record may already be part of, and none
// recomputes verification — a record states a verdict the server already
// committed.
func (s *Server) applyRecord(rec storage.Record) error {
	switch rec.Kind {
	case recDroneRegistered:
		var d walDrone
		if err := json.Unmarshal(rec.Data, &d); err != nil {
			return fmt.Errorf("drone record: %w", err)
		}
		drone, err := decodeRegistration(d.OperatorPub, d.TEEPub, d.Disclosure)
		if err != nil {
			return fmt.Errorf("drone record %s: %w", d.ID, err)
		}
		if d.Suite != drone.Suite {
			return fmt.Errorf("drone record %s: suite %q does not match its key (%s)", d.ID, d.Suite, drone.Suite)
		}
		drone.ID = d.ID
		s.drones.put(s.cfg.Clock.Now(), d.ID, drone)
	case recZoneRegistered:
		var z zone.NFZ
		if err := json.Unmarshal(rec.Data, &z); err != nil {
			return fmt.Errorf("zone record: %w", err)
		}
		if err := s.zones.Restore(z); err != nil {
			return fmt.Errorf("zone record: %w", err)
		}
	case recPoARetained:
		var r retainedPoA
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return fmt.Errorf("retained record: %w", err)
		}
		s.retained.restore(r)
	case recNonceSeen:
		var n walNonce
		if err := json.Unmarshal(rec.Data, &n); err != nil {
			return fmt.Errorf("nonce record: %w", err)
		}
		s.nonces.restore(n)
	case recDigestClaimed:
		var d walDigest
		if err := json.Unmarshal(rec.Data, &d); err != nil {
			return fmt.Errorf("digest record: %w", err)
		}
		raw, err := hex.DecodeString(d.Digest)
		if err != nil || len(raw) != 32 {
			return fmt.Errorf("digest record: bad digest %q", d.Digest)
		}
		var dg [32]byte
		copy(dg[:], raw)
		s.seen.restore(dg, d.Seen)
	case recPurge:
		var p walPurge
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return fmt.Errorf("purge record: %w", err)
		}
		s.retained.purge(p.Cutoff)
		s.disclosures.purge(p.Cutoff)
		s.seen.sweep(p.Cutoff)
		s.nonces.sweep(p.Now)
	case recKeyRotated:
		var r walRotation
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return fmt.Errorf("rotation record: %w", err)
		}
		newPub, err := sigcrypto.ParsePublicKey(r.NewPub)
		if err != nil {
			return fmt.Errorf("rotation record %s: new key: %w", r.DroneID, err)
		}
		// An epoch already in the ring (the snapshot covered it) is a no-op.
		known, _ := s.drones.update(r.DroneID, func(rec DroneRecord) (DroneRecord, error) {
			if rec.ActiveKey().Epoch >= r.NewEpoch {
				return rec, nil
			}
			return rec.rotated(TEEKey{Pub: newPub, Epoch: r.NewEpoch}, r.RetiredAt), nil
		})
		if !known {
			return fmt.Errorf("rotation record: unknown drone %q", r.DroneID)
		}
	case recDisclosureRetained:
		var d retainedDisclosure
		if err := json.Unmarshal(rec.Data, &d); err != nil {
			return fmt.Errorf("disclosure record: %w", err)
		}
		s.disclosures.restore(d)
	default:
		return fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	return nil
}

// decodeEncKey reads the key record that closes a snapshot. It is not an
// applyRecord kind: restoreServer reads it before anything else, so the
// restored server is built around the persisted key instead of generating
// one of its own.
func decodeEncKey(rec storage.Record) (*rsa.PrivateKey, error) {
	var k walEncKey
	if err := json.Unmarshal(rec.Data, &k); err != nil {
		return nil, fmt.Errorf("key record: %w", err)
	}
	key, err := sigcrypto.UnmarshalPrivateKey(k.EncKey)
	if err != nil {
		return nil, fmt.Errorf("key record: %w", err)
	}
	return key, nil
}

// recordDrone names the drone a record belongs to, or "" for the kinds
// every shard holds (zones, nonces, digests). The cluster router routes a
// handed-over record with it; only applyRecord reads the rest.
func recordDrone(rec storage.Record) (string, error) {
	switch rec.Kind {
	case recDroneRegistered, recPoARetained, recKeyRotated, recDisclosureRetained:
		var k struct {
			ID      string `json:"id"`      // walDrone
			DroneID string `json:"droneId"` // the other three
		}
		if err := json.Unmarshal(rec.Data, &k); err != nil {
			return "", fmt.Errorf("%s record: %w", walKindName(rec.Kind), err)
		}
		if k.ID+k.DroneID == "" {
			return "", fmt.Errorf("%s record names no drone", walKindName(rec.Kind))
		}
		return k.ID + k.DroneID, nil
	}
	return "", nil
}
