package storage

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/wire"
)

// On-disk layout: a state directory holding numbered WAL segments and
// snapshots,
//
//	wal-00000001.log   wal-00000002.log ...
//	snap-00000002.rec  ...
//
// snap-K is captured *after* rotation to segment K, so it contains every
// mutation recorded in segments < K (entirely) plus possibly some already
// recorded in K — which is why replay must be idempotent. Recovery loads
// the highest snapshot K and replays segments K, K+1, ..., newest. A
// crash between rotation and snapshot write simply leaves one more
// segment to replay from the previous snapshot.
//
// Record framing (little-endian):
//
//	[4B payload length][4B IEEE CRC32 of payload][payload = kind byte + data]
//
// A frame that fails the length bound, runs past EOF, or mismatches its
// CRC ends the readable prefix. In the active (newest) segment that is
// the torn tail of a crash and is truncated away; in a sealed segment —
// which was flushed and fsynced before the next was created — it is
// ErrCorrupt.

const (
	frameHeaderBytes = wire.HeaderBytes
	// maxRecordBytes bounds one framed payload, so a garbage length field
	// cannot drive a huge allocation during recovery.
	maxRecordBytes = 1 << 26 // 64 MiB

	walPrefix  = "wal-"
	walSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".rec"
)

// Options configures a FileStore.
type Options struct {
	// NoFsync skips fsync-on-commit: appends are still flushed to the OS
	// on every commit (surviving a process crash) but not forced to the
	// platter (lost on power failure). Benchmark/test use.
	NoFsync bool
	// Metrics, when set, receives the engine's WAL/fsync/compaction
	// series (see the Metric* constants).
	Metrics *obs.Registry
}

// FileStore is the durable Store: a write-ahead log with group commit
// plus compacted snapshots.
//
// Group commit: every Append writes its frames into the buffered writer
// under the store lock, then either becomes the sync leader — flushing
// and fsyncing everything buffered so far on behalf of all waiters — or
// blocks until a leader's fsync covers its records. Concurrent
// submissions therefore share fsyncs instead of queueing one disk flush
// each, which is what keeps the file backend within shouting distance of
// the in-memory store under parallel load.
type FileStore struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File      // active segment
	bw       *bufio.Writer // buffers frames into f
	seg      uint64        // active segment sequence
	writeSeq uint64        // records written into bw
	syncSeq  uint64        // records durably committed
	syncing  bool          // a sync leader is in flight
	closed   bool
	err      error // sticky: first I/O failure poisons the store

	compactMu sync.Mutex // serializes Snapshot calls

	recovered atomic.Bool
}

// OpenFileStore opens (or initialises) the engine in dir, creating the
// directory and the first segment as needed.
func OpenFileStore(dir string, opts Options) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	wals, snaps, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	seg := uint64(1)
	if n := len(wals); n > 0 && wals[n-1] > seg {
		seg = wals[n-1]
	}
	if n := len(snaps); n > 0 && snaps[n-1] > seg {
		// A snapshot without its segment means the directory was tampered
		// with, but the recoverable interpretation is unambiguous: start
		// the log again at the snapshot boundary.
		seg = snaps[n-1]
	}
	f, err := openSegment(dir, seg)
	if err != nil {
		return nil, err
	}
	fs := &FileStore{dir: dir, opts: opts, f: f, bw: bufio.NewWriterSize(f, 1<<16), seg: seg}
	fs.cond = sync.NewCond(&fs.mu)
	return fs, nil
}

// openSegment opens segment seq for appending, creating it (and syncing
// the directory entry) when absent.
func openSegment(dir string, seq uint64) (*os.File, error) {
	path := segPath(dir, seq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if errors.Is(err, os.ErrNotExist) {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o600)
		if err == nil {
			err = SyncDir(dir)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("storage: open segment %d: %w", seq, err)
	}
	return f, nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", walPrefix, seq, walSuffix))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapSuffix))
}

// scanDir lists the WAL and snapshot sequence numbers present, ascending.
func scanDir(dir string) (wals, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: scan %s: %w", dir, err)
	}
	parse := func(name, prefix, suffix string) (uint64, bool) {
		var n uint64
		if _, err := fmt.Sscanf(name, prefix+"%08d"+suffix, &n); err != nil || n == 0 {
			return 0, false
		}
		return n, true
	}
	for _, e := range entries {
		if n, ok := parse(e.Name(), walPrefix, walSuffix); ok {
			wals = append(wals, n)
		} else if n, ok := parse(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return wals, snaps, nil
}

// Append durably commits the records as one batch (group commit). The
// context's trace span (if any) receives events marking the commit role
// this call played — sync leader (it ran the fsync) or follower (a
// concurrent leader's fsync covered its records) — which is how a trace
// of one submission shows whether its WAL commit paid for a disk flush
// or rode a shared one.
func (fs *FileStore) Append(ctx context.Context, recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	reg := fs.opts.Metrics
	tsp := otrace.FromContext(ctx)
	led := false

	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	if fs.err != nil {
		return fs.err
	}
	var frameBytes uint64
	for _, r := range recs {
		n, err := writeFrame(fs.bw, r)
		if err != nil {
			fs.fail(err)
			return fs.err
		}
		frameBytes += uint64(n)
		fs.writeSeq++
	}
	reg.Counter(MetricWALAppendsTotal).Add(uint64(len(recs)))
	reg.Counter(MetricWALBytesTotal).Add(frameBytes)
	mine := fs.writeSeq

	for fs.syncSeq < mine && fs.err == nil {
		if fs.syncing {
			fs.cond.Wait()
			continue
		}
		// Become the sync leader for everything buffered so far. The
		// flush happens under the lock (bufio is not concurrency-safe);
		// only the fsync — the slow part — releases it, so followers keep
		// buffering records that the *next* leader will commit.
		fs.syncing = true
		target := fs.writeSeq
		if err := fs.bw.Flush(); err != nil {
			fs.syncing = false
			fs.fail(err)
			break
		}
		f := fs.f
		fs.mu.Unlock()
		led = true
		var serr error
		if !fs.opts.NoFsync {
			tsp.Event("fsync (leader)")
			sp := reg.StartSpan(reg.Histogram(MetricFsyncSeconds, obs.SyncBuckets))
			serr = f.Sync()
			sp.End()
		}
		reg.Counter(MetricFsyncsTotal).Inc()
		fs.mu.Lock()
		fs.syncing = false
		if serr != nil {
			fs.fail(serr)
		} else if target > fs.syncSeq {
			fs.syncSeq = target
		}
		fs.cond.Broadcast()
	}
	if fs.err == nil && !led {
		tsp.Event("committed (follower)")
	}
	return fs.err
}

// fail records the first I/O error and wakes all waiters: a store that
// can no longer promise durability refuses further work rather than
// acknowledging writes it may be losing.
func (fs *FileStore) fail(err error) {
	if fs.err == nil {
		fs.err = fmt.Errorf("storage: wal: %w", err)
	}
	fs.cond.Broadcast()
}

// Snapshot rotates the log, captures the state, persists it durably and
// prunes the segments it covers.
func (fs *FileStore) Snapshot(capture func() ([]byte, error)) error {
	fs.compactMu.Lock()
	defer fs.compactMu.Unlock()
	reg := fs.opts.Metrics
	sp := reg.StartSpan(reg.Histogram(MetricCompactionSeconds, obs.DurationBuckets))

	// Seal the active segment and rotate. From here on, every new append
	// lands in the new segment, so capture() — run after rotation — sees
	// at least everything the sealed segments record.
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return ErrClosed
	}
	if fs.err != nil {
		defer fs.mu.Unlock()
		return fs.err
	}
	if err := fs.bw.Flush(); err != nil {
		fs.fail(err)
		defer fs.mu.Unlock()
		return fs.err
	}
	if !fs.opts.NoFsync {
		if err := fs.f.Sync(); err != nil {
			fs.fail(err)
			defer fs.mu.Unlock()
			return fs.err
		}
	}
	newSeg := fs.seg + 1
	nf, err := openSegment(fs.dir, newSeg)
	if err != nil {
		fs.fail(err)
		defer fs.mu.Unlock()
		return fs.err
	}
	old := fs.f
	fs.f, fs.bw, fs.seg = nf, bufio.NewWriterSize(nf, 1<<16), newSeg
	fs.mu.Unlock()
	_ = old.Close()

	data, err := capture()
	if err != nil {
		// No snapshot written: recovery falls back to the previous one
		// and replays both segments. Nothing was pruned, nothing is lost.
		return fmt.Errorf("storage: snapshot capture: %w", err)
	}
	if err := WriteFileAtomic(snapPath(fs.dir, newSeg), data, 0o600, !fs.opts.NoFsync); err != nil {
		return fmt.Errorf("storage: snapshot: %w", err)
	}

	// Prune everything the new snapshot covers. Best effort: a leftover
	// file is ignored by recovery and retried by the next compaction.
	wals, snaps, err := scanDir(fs.dir)
	if err == nil {
		for _, seq := range wals {
			if seq < newSeg {
				_ = os.Remove(segPath(fs.dir, seq))
			}
		}
		for _, seq := range snaps {
			if seq < newSeg {
				_ = os.Remove(snapPath(fs.dir, seq))
			}
		}
		_ = SyncDir(fs.dir)
	}
	reg.Counter(MetricCompactionsTotal).Inc()
	sp.End()
	return nil
}

// Recover loads the newest snapshot and replays the segments after it.
// Must run before the first Append; the torn tail of the active segment
// (a crash mid-commit) is truncated to the last whole record.
func (fs *FileStore) Recover() ([]byte, []Record, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, nil, ErrClosed
	}
	if fs.recovered.Swap(true) || fs.writeSeq > 0 {
		return nil, nil, errors.New("storage: Recover must precede Append and runs once")
	}

	wals, snaps, err := scanDir(fs.dir)
	if err != nil {
		return nil, nil, err
	}
	var snap []byte
	snapSeq := uint64(0)
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1]
		snap, err = os.ReadFile(snapPath(fs.dir, snapSeq))
		if err != nil {
			return nil, nil, fmt.Errorf("storage: read snapshot %d: %w", snapSeq, err)
		}
	}

	var tail []Record
	for _, seq := range wals {
		if seq < snapSeq {
			continue // covered by the snapshot, pending prune
		}
		recs, good, total, scanErr := scanSegment(segPath(fs.dir, seq))
		if scanErr != nil {
			return nil, nil, scanErr
		}
		if good < total {
			if seq != fs.seg {
				// A sealed segment was flushed and fsynced before its
				// successor existed; a bad frame inside one is disk
				// corruption, not a crash artefact.
				return nil, nil, fmt.Errorf("%w: segment %d bad frame at offset %d", ErrCorrupt, seq, good)
			}
			if err := os.Truncate(segPath(fs.dir, seq), good); err != nil {
				return nil, nil, fmt.Errorf("storage: truncate torn tail: %w", err)
			}
		}
		tail = append(tail, recs...)
	}
	fs.opts.Metrics.Gauge(MetricRecoveryReplayedRecords).Set(float64(len(tail)))
	return snap, tail, nil
}

// Close flushes, syncs and closes the active segment.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	fs.closed = true
	fs.cond.Broadcast()
	err := fs.bw.Flush()
	if !fs.opts.NoFsync {
		if serr := fs.f.Sync(); err == nil {
			err = serr
		}
	}
	if cerr := fs.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the state directory the engine lives in.
func (fs *FileStore) Dir() string { return fs.dir }

// writeFrame appends one framed record to w and returns the framed size.
// The framing itself (header layout, CRC, torn-frame taxonomy) lives in
// internal/wire and is shared with the network transport.
func writeFrame(w *bufio.Writer, r Record) (int, error) {
	n, err := wire.WriteFrame(w, r.Kind, r.Data, maxRecordBytes)
	if errors.Is(err, wire.ErrFrameTooLarge) {
		return 0, fmt.Errorf("storage: record of %d bytes exceeds frame limit", len(r.Data))
	}
	return n, err
}

// scanSegment reads every whole, checksummed record of one segment.
// good is the byte offset of the end of the last valid frame; total is
// the file size. good < total means the bytes after good are torn or
// corrupt. Any framing failure — torn header or payload, CRC mismatch,
// garbage length — ends the readable prefix; the caller decides whether
// that is a truncatable crash artefact or ErrCorrupt.
func scanSegment(path string) (recs []Record, good, total int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("storage: open segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("storage: stat segment: %w", err)
	}
	total = st.Size()

	recs, good, _ = readRecords(bufio.NewReaderSize(f, 1<<16))
	return recs, good, total, nil // clean EOF, torn frame, or bit rot
}

// readRecords reads whole, checksummed frames until the input ends. good
// is the offset just past the last valid frame; err is nil only when the
// input ended cleanly on that boundary.
func readRecords(br *bufio.Reader) (recs []Record, good int64, err error) {
	for {
		kind, data, rerr := wire.ReadFrame(br, maxRecordBytes)
		if rerr == io.EOF {
			return recs, good, nil
		}
		if rerr != nil {
			return recs, good, rerr
		}
		recs = append(recs, Record{Kind: kind, Data: data})
		good += frameHeaderBytes + int64(1+len(data))
	}
}

// EncodeRecords frames a record stream exactly as a WAL segment holds it.
// The auditor writes its snapshots and cluster handoffs this way, so one
// framing — and one integrity check — covers every durable byte.
func EncodeRecords(recs []Record) ([]byte, error) {
	var out []byte
	for _, r := range recs {
		if len(r.Data)+1 > maxRecordBytes {
			return nil, fmt.Errorf("storage: record of %d bytes exceeds frame limit", len(r.Data))
		}
		out = wire.AppendFrame(out, r.Kind, r.Data)
	}
	return out, nil
}

// DecodeRecords is the inverse of EncodeRecords. Unlike the active WAL
// segment, an encoded stream was written whole, so any byte that is not
// part of a valid frame — a flipped bit, a cut tail — is ErrCorrupt.
func DecodeRecords(data []byte) ([]Record, error) {
	recs, good, err := readRecords(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return nil, fmt.Errorf("%w: bad frame at offset %d: %v", ErrCorrupt, good, err)
	}
	return recs, nil
}
