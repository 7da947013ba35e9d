package auditor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/poa"
	"repro/internal/privacy"
)

// This file holds the server's state stores. Historically every field sat
// behind one Server.mu, which serialized concurrent submissions from
// unrelated drones; the stores below are locked independently (and the
// replay-digest set is sharded) so the only contention left between two
// submissions is genuine contention on the same data.
//
// Lock ordering: no store method calls into another store, so no two
// store locks are ever held at once and lock-order cycles are impossible
// by construction.

// droneStore is the registered-drone registry: (id_drone, D+, T+).
type droneStore struct {
	mu   sync.RWMutex
	m    map[string]DroneRecord
	next int
}

func newDroneStore() *droneStore { return &droneStore{m: make(map[string]DroneRecord)} }

// register issues the next drone ID and files the record under it.
func (st *droneStore) register(rec DroneRecord) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	rec.ID = fmt.Sprintf("drone-%04d", st.next)
	st.m[rec.ID] = rec
	return rec.ID
}

func (st *droneStore) get(id string) (DroneRecord, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	rec, ok := st.m[id]
	return rec, ok
}

func (st *droneStore) len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// all returns every record sorted by ID (deterministic persistence).
func (st *droneStore) all() []DroneRecord {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]DroneRecord, 0, len(st.m))
	for _, rec := range st.m {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// create files a record under a caller-chosen ID — the cluster routing
// layer issues drone IDs ring-side and files them on the owning shard.
// It returns false when the ID is already taken.
func (st *droneStore) create(rec DroneRecord) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.m[rec.ID]; ok {
		return false
	}
	st.m[rec.ID] = rec
	return true
}

// restore files a record under its persisted ID and bumps the sequence.
func (st *droneStore) restore(rec DroneRecord, next int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.m[rec.ID] = rec
	if next > st.next {
		st.next = next
	}
}

// nonceStore is the zone-query anti-replay cache. Entries carry the time
// they were first seen so they can expire after the configured TTL —
// without expiry the map grows forever under sustained traffic.
type nonceStore struct {
	mu  sync.Mutex
	m   map[string]time.Time
	ttl time.Duration
}

func newNonceStore(ttl time.Duration) *nonceStore {
	return &nonceStore{m: make(map[string]time.Time), ttl: ttl}
}

// claim records the nonce as used. It returns false — a replay — when
// the nonce is already present and has not yet expired.
func (st *nonceStore) claim(nonce string, now time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if seen, ok := st.m[nonce]; ok && (st.ttl <= 0 || now.Sub(seen) < st.ttl) {
		return false
	}
	st.m[nonce] = now
	return true
}

// sweep drops every expired nonce and returns how many were removed.
func (st *nonceStore) sweep(now time.Time) int {
	if st.ttl <= 0 {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	removed := 0
	for n, seen := range st.m {
		if now.Sub(seen) >= st.ttl {
			delete(st.m, n)
			removed++
		}
	}
	return removed
}

func (st *nonceStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// all returns the live entries sorted by nonce (deterministic persistence).
func (st *nonceStore) all() []nonceSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]nonceSnapshot, 0, len(st.m))
	for n, seen := range st.m {
		out = append(out, nonceSnapshot{Nonce: n, Seen: seen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nonce < out[j].Nonce })
	return out
}

func (st *nonceStore) restore(n nonceSnapshot) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.m[n.Nonce] = n.Seen
}

// digestShards is the shard count of the replay-detection set. Shard
// selection keys on the first digest byte; SHA-256 output is uniform, so
// shards load-balance regardless of the submission pattern.
const digestShards = 32

// digestStore is the sharded set of accepted-PoA digests, for replay
// detection. claim is atomic — the digest is reserved *before*
// verification runs, closing the check-then-set window in which two
// concurrent submissions of the same PoA could both be accepted.
type digestStore struct {
	shards [digestShards]struct {
		mu sync.Mutex
		m  map[[32]byte]time.Time
	}
}

func newDigestStore() *digestStore {
	st := &digestStore{}
	for i := range st.shards {
		st.shards[i].m = make(map[[32]byte]time.Time)
	}
	return st
}

// claim atomically reserves a digest. It returns false when the digest
// is already present (a replay, or a concurrent duplicate in flight).
func (st *digestStore) claim(d [32]byte, now time.Time) bool {
	sh := &st.shards[d[0]%digestShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[d]; ok {
		return false
	}
	sh.m[d] = now
	return true
}

// release frees a claimed digest — called when the claimed submission
// fails verification, so a later honest submission of the same bytes is
// not shadowed by a failed one.
func (st *digestStore) release(d [32]byte) {
	sh := &st.shards[d[0]%digestShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.m, d)
}

// sweep drops digests claimed at or before the cutoff and returns how
// many were removed. A replayed PoA older than the retention window has
// no retained counterpart to contradict, so keeping its digest buys
// nothing.
func (st *digestStore) sweep(cutoff time.Time) int {
	removed := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for d, seen := range sh.m {
			if !seen.After(cutoff) {
				delete(sh.m, d)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

func (st *digestStore) len() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// all returns the live digests sorted lexically (deterministic
// persistence).
func (st *digestStore) all() []digestEntry {
	var out []digestEntry
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for d, seen := range sh.m {
			out = append(out, digestEntry{digest: d, seen: seen})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		for b := 0; b < 32; b++ {
			if out[i].digest[b] != out[j].digest[b] {
				return out[i].digest[b] < out[j].digest[b]
			}
		}
		return false
	})
	return out
}

func (st *digestStore) restore(d [32]byte, seen time.Time) {
	sh := &st.shards[d[0]%digestShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.m[d] = seen
}

// digestEntry is one replay-set member with its claim time.
type digestEntry struct {
	digest [32]byte
	seen   time.Time
}

// seqStamped is what a record needs to live in a seqStore: the fields the
// store filters on, and a way to stamp the sequence number it issues.
type seqStamped[T any] interface {
	retention() (droneID string, submitted time.Time, seq uint64)
	withSeq(seq uint64) T
}

func (r retainedPoA) retention() (string, time.Time, uint64) {
	return r.DroneID, r.SubmitTime, r.Seq
}
func (r retainedPoA) withSeq(seq uint64) retainedPoA { r.Seq = seq; return r }

// retainedDisclosure is one retained sealed/commit submission awaiting
// possible accusation. Sealed mode keeps the entries themselves (reveal
// then needs only the two keys); commit mode keeps just the signed
// commitment — timestamps, root, epoch — and the entries arrive with the
// reveal, authenticated by their Merkle paths. Field order matches
// disclosureSnapshot so the two convert directly.
type retainedDisclosure struct {
	DroneID    string
	Mode       string // poa.DisclosureSealed or poa.DisclosureCommit
	Times      []time.Time
	Root       []byte
	KeyEpoch   int
	Entries    []privacy.SealedSample
	SubmitTime time.Time
	Seq        uint64
}

func (r retainedDisclosure) retention() (string, time.Time, uint64) {
	return r.DroneID, r.SubmitTime, r.Seq
}
func (r retainedDisclosure) withSeq(seq uint64) retainedDisclosure { r.Seq = seq; return r }

// seqStore holds records retained for the accusation window — verified
// PoAs in one instance, sealed/commit disclosures in another. add stamps
// a monotonic sequence number onto every record; WAL replay uses it to
// recognise records whose effect is already in a restored snapshot.
type seqStore[T seqStamped[T]] struct {
	mu   sync.RWMutex
	recs []T
	have map[uint64]struct{} // Seqs of the records in recs
	seq  uint64              // highest Seq issued or restored
}

func newSeqStore[T seqStamped[T]]() *seqStore[T] {
	return &seqStore[T]{have: make(map[uint64]struct{})}
}

// add stamps the next sequence number onto r, appends it, and returns the
// stamped record along with the new store size.
func (st *seqStore[T]) add(r T) (T, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	r = r.withSeq(st.seq)
	st.have[st.seq] = struct{}{}
	st.recs = append(st.recs, r)
	return r, len(st.recs)
}

// purge drops records submitted at or before the cutoff; returns how many
// were removed and how many remain.
func (st *seqStore[T]) purge(cutoff time.Time) (removed, kept int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	remaining := st.recs[:0]
	for _, r := range st.recs {
		if _, submitted, seq := r.retention(); submitted.After(cutoff) {
			remaining = append(remaining, r)
		} else {
			delete(st.have, seq)
			removed++
		}
	}
	st.recs = remaining
	return removed, len(remaining)
}

func (st *seqStore[T]) len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.recs)
}

// byDrone returns one drone's records, in commit order.
func (st *seqStore[T]) byDrone(droneID string) []T {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []T
	for _, r := range st.recs {
		if id, _, _ := r.retention(); id == droneID {
			out = append(out, r)
		}
	}
	return out
}

// bySeq returns the record with the given sequence number.
func (st *seqStore[T]) bySeq(seq uint64) (T, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, r := range st.recs {
		if _, _, s := r.retention(); s == seq {
			return r, true
		}
	}
	var zero T
	return zero, false
}

// all returns every record in commit order.
func (st *seqStore[T]) all() []T {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append([]T(nil), st.recs...)
}

// restore re-files a persisted record. A record whose sequence number is
// already present (snapshot overlap during WAL replay) is skipped. The
// test is membership, not a high-water mark: add stamps the Seq before
// the WAL append, so concurrent commits can reach the log in the reverse
// of their Seq order, and a replay must keep both. Legacy seq-0 entries
// from pre-WAL snapshots always restore.
func (st *seqStore[T]) restore(r T) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, _, seq := r.retention(); seq != 0 {
		if _, dup := st.have[seq]; dup {
			return
		}
		st.have[seq] = struct{}{}
		st.seq = max(st.seq, seq)
	}
	st.recs = append(st.recs, r)
}

// challengeRecord is one outstanding selective-disclosure challenge.
// Challenges are deliberately ephemeral, like sessions and open streams:
// a restart voids them and the zone owner re-accuses.
type challengeRecord struct {
	DroneID       string
	ZoneID        string
	Mode          string
	At            time.Time
	PairIndex     int
	DisclosureSeq uint64 // Seq of the retained disclosure it challenges
}

// challengeStore holds outstanding disclosure challenges by ID.
type challengeStore struct {
	mu   sync.Mutex
	tag  string
	m    map[string]challengeRecord
	next int
}

func newChallengeStore() *challengeStore { return &challengeStore{m: make(map[string]challengeRecord)} }

func (st *challengeStore) add(rec challengeRecord) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	id := taggedID("challenge", st.tag, st.next)
	st.m[id] = rec
	return id
}

func (st *challengeStore) get(id string) (challengeRecord, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.m[id]
	return rec, ok
}

// resolve removes a settled challenge (verdict reached). A failed reveal
// leaves the challenge open so the operator can retry.
func (st *challengeStore) resolve(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.m, id)
}

// taggedID renders an issued ID, folding in the shard tag when the
// server runs as one shard of a cluster so IDs issued by different
// shards never collide ("session-0007" vs "session-a-s1-0007").
func taggedID(prefix, tag string, n int) string {
	if tag == "" {
		return fmt.Sprintf("%s-%04d", prefix, n)
	}
	return fmt.Sprintf("%s-%s-%04d", prefix, tag, n)
}

// sessionStore holds the §VII-A1a symmetric flight sessions.
type sessionStore struct {
	mu   sync.RWMutex
	tag  string
	m    map[string]sessionRecord
	next int
}

func newSessionStore() *sessionStore { return &sessionStore{m: make(map[string]sessionRecord)} }

func (st *sessionStore) add(rec sessionRecord) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	id := taggedID("session", st.tag, st.next)
	st.m[id] = rec
	return id
}

func (st *sessionStore) get(id string) (sessionRecord, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	rec, ok := st.m[id]
	return rec, ok
}

func (st *sessionStore) len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// zone3DStore holds the §VII-B1 cylindrical no-fly regions.
type zone3DStore struct {
	mu   sync.RWMutex
	m    map[string]cylinderRecord
	next int
}

func newZone3DStore() *zone3DStore { return &zone3DStore{m: make(map[string]cylinderRecord)} }

func (st *zone3DStore) add(owner string, z poa.CylinderZone) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	id := fmt.Sprintf("zone3d-%04d", st.next)
	st.m[id] = cylinderRecord{ID: id, Owner: owner, Zone: z}
	return id
}

func (st *zone3DStore) len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// zones returns the bare cylinder geometry (verification hot path).
func (st *zone3DStore) zones() []poa.CylinderZone {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]poa.CylinderZone, 0, len(st.m))
	for _, r := range st.m {
		out = append(out, r.Zone)
	}
	return out
}

// all returns every record sorted by ID (deterministic persistence).
func (st *zone3DStore) all() []cylinderRecord {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]cylinderRecord, 0, len(st.m))
	for _, r := range st.m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (st *zone3DStore) restore(rec cylinderRecord, next int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.m[rec.ID] = rec
	if next > st.next {
		st.next = next
	}
}

// streamStore holds the in-flight real-time audits. Each streamState has
// its own lock so per-sample verification serializes per stream (samples
// are ordered within a flight) while distinct streams proceed in
// parallel.
type streamStore struct {
	mu   sync.Mutex
	tag  string
	m    map[string]*streamState
	next int
}

func newStreamStore() *streamStore { return &streamStore{m: make(map[string]*streamState)} }

func (st *streamStore) open(droneID string) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	id := taggedID("stream", st.tag, st.next)
	st.m[id] = &streamState{DroneID: droneID}
	return id
}

func (st *streamStore) get(id string) (*streamState, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.m[id]
	return s, ok
}

func (st *streamStore) remove(id string) (*streamState, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.m[id]
	if ok {
		delete(st.m, id)
	}
	return s, ok
}

func (st *streamStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}
