package auditor

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/sigcrypto"
	"repro/internal/storage"
)

// exportRecords serialises the server's durable state as the shortest
// record stream that rebuilds it (see wal.go for the schema): one
// recDroneRegistered per drone followed by one recKeyRotated per later
// epoch of its ring, every zone, retained PoA and disclosure, the live
// nonces and replay digests, and — last, so that a stream cut short at a
// frame boundary is recognisably incomplete — the PoA key pair. A handoff
// stream leaves the key out (peers fetch it once, at join) and clears the
// retention sequence numbers, which mean nothing in the receiving shard's
// counter.
//
// Each store is read under its own lock; no store lock is held across
// another store's, so the capture can run concurrently with submissions
// (each mutation is either fully captured here or replayed from the WAL).
func (s *Server) exportRecords(handoff bool) ([]byte, error) {
	var (
		recs []storage.Record
		errs []error // any failure discards the stream
	)
	str := func(v string, err error) string { errs = append(errs, err); return v }
	emit := func(kind byte, v any) {
		rec, err := encodeRecord(kind, v)
		errs = append(errs, err)
		recs = append(recs, rec)
	}
	for _, d := range s.drones.all() {
		emit(recDroneRegistered, walDrone{
			ID:          d.ID,
			OperatorPub: str(sigcrypto.MarshalPublicKey(d.OperatorPub)),
			TEEPub:      str(d.TEEKeys[0].Pub.Marshal()),
			Suite:       d.Suite,
			Disclosure:  d.Disclosure,
		})
		for i, k := range d.TEEKeys[1:] {
			prev := d.TEEKeys[i]
			emit(recKeyRotated, walRotation{
				DroneID:   d.ID,
				OldEpoch:  prev.Epoch,
				NewEpoch:  k.Epoch,
				NewPub:    str(k.Pub.Marshal()),
				RetiredAt: prev.RetiredAt,
			})
		}
	}
	for _, z := range s.zones.All() {
		emit(recZoneRegistered, z)
	}
	for _, r := range s.retained.all() {
		if handoff {
			r.Seq = 0
		}
		emit(recPoARetained, r)
	}
	for _, r := range s.disclosures.all() {
		if handoff {
			r.Seq = 0
		}
		emit(recDisclosureRetained, r)
	}
	for _, n := range s.nonces.all() {
		emit(recNonceSeen, n)
	}
	for _, d := range s.seen.all() {
		emit(recDigestClaimed, d)
	}
	if !handoff {
		emit(recEncKey, walEncKey{EncKey: str(sigcrypto.MarshalPrivateKey(s.encKey))})
	}
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("export state: %w", err)
	}
	return storage.EncodeRecords(recs)
}

// restoreServer builds a server from a snapshot stream — the storage
// engine's latest compaction — by applying its records in order. The
// stream must end with the key record, which is decoded first and handed
// to NewServer, so a restore never pays for a key it would throw away. On
// any error the half-built server is discarded, so a damaged snapshot
// never yields a partially restored server.
func restoreServer(cfg Config, data []byte) (*Server, error) {
	recs, err := storage.DecodeRecords(data)
	if err != nil {
		return nil, fmt.Errorf("load state: %w", err)
	}
	n := len(recs)
	if n == 0 || recs[n-1].Kind != recEncKey {
		return nil, fmt.Errorf("load state: %w: snapshot does not end with the key record", storage.ErrCorrupt)
	}
	if cfg.EncryptionKey, err = decodeEncKey(recs[n-1]); err != nil {
		return nil, fmt.Errorf("load state: %w", err)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	for i, rec := range recs[:n-1] {
		if err := srv.applyRecord(rec); err != nil {
			return nil, fmt.Errorf("load state: record %d: %w", i, err)
		}
	}
	// Re-seed the retention gauge so a scrape right after a restart
	// reflects the restored store instead of reporting no data until
	// the next submission or sweep.
	cfg.Metrics.Gauge(MetricRetainedPoAs).Set(float64(srv.retained.len()))
	return srv, nil
}

// Sweeper is the retention housekeeping loop: it periodically purges
// expired PoAs, sessions, open streams and disclosure challenges. Expiry
// itself is computed against the server's injectable clock, so tests
// drive the Ticks channel and a fake clock instead of sleeping.
type Sweeper struct {
	Server *Server
	// Interval is the production tick period (ignored when Ticks set).
	Interval time.Duration
	// Ticks overrides the internal time.Ticker; tests send on it to
	// trigger sweeps deterministically.
	Ticks <-chan time.Time
	// Logf receives housekeeping log lines (nil = silent).
	Logf func(format string, args ...any)
	// AfterSweep, when set, is called with the purge count after every
	// sweep completes (including zero-purge sweeps).
	AfterSweep func(purged int)
}

// RunOnce performs a single sweep under ctx: the purge's WAL append runs
// under it, so tearing down the sweeper cancels in-flight housekeeping
// I/O instead of orphaning it on a background context.
func (sw *Sweeper) RunOnce(ctx context.Context) int {
	purged := sw.Server.PurgeExpiredCtx(ctx)
	if purged > 0 && sw.Logf != nil {
		sw.Logf("purged %d expired PoAs", purged)
	}
	if sw.AfterSweep != nil {
		sw.AfterSweep(purged)
	}
	return purged
}

// Run sweeps on every tick until ctx is cancelled.
func (sw *Sweeper) Run(ctx context.Context) {
	ticks := sw.Ticks
	if ticks == nil {
		t := time.NewTicker(sw.Interval)
		defer t.Stop()
		ticks = t.C
	}
	for {
		select {
		case <-ticks:
			sw.RunOnce(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// OpenServer recovers a server from a storage engine and attaches it, so
// every subsequent mutation is logged durably. Recovery is snapshot +
// WAL-tail replay; see internal/storage for the on-disk contract.
//
// legacyState must be empty: the pre-WAL whole-file state mode it once
// migrated from is gone, and a non-empty value is an error rather than a
// path silently ignored. The argument itself goes away with ROADMAP item
// 2(a), which frees the benchmark adapter that still passes it.
//
// A fresh store (no snapshot, no WAL) gets an initial snapshot before
// OpenServer returns: the just-generated encryption key must be durable
// before any drone encrypts a PoA to it.
func OpenServer(cfg Config, st storage.Store, legacyState string) (*Server, error) {
	if legacyState != "" {
		return nil, fmt.Errorf("open server: legacy state file %q: the whole-file state mode is gone; recover from a storage engine directory", legacyState)
	}
	snapBytes, tail, err := st.Recover()
	if err != nil {
		return nil, fmt.Errorf("open server: %w", err)
	}
	if snapBytes == nil && len(tail) > 0 {
		return nil, errors.New("open server: state dir has WAL records but no snapshot")
	}

	var srv *Server
	if snapBytes != nil {
		if srv, err = restoreServer(cfg, snapBytes); err != nil {
			return nil, fmt.Errorf("open server: %w", err)
		}
	} else if srv, err = NewServer(cfg); err != nil {
		return nil, err
	}

	for i, rec := range tail {
		if err := srv.applyRecord(rec); err != nil {
			return nil, fmt.Errorf("open server: replay WAL record %d: %w", i, err)
		}
	}
	if len(tail) > 0 {
		cfg.Metrics.Gauge(storage.MetricRecoveryReplayedRecords).Set(float64(len(tail)))
		cfg.Metrics.Gauge(MetricRetainedPoAs).Set(float64(srv.retained.len()))
	}

	srv.attachStore(st)
	if snapBytes == nil {
		if err := srv.Checkpoint(); err != nil {
			return nil, fmt.Errorf("open server: initial snapshot: %w", err)
		}
	}
	return srv, nil
}
