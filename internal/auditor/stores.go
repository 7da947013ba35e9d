package auditor

import (
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/privacy"
	"repro/internal/protocol"
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

// idStore is the one ID-issuing store: a locked map from issued ID to
// value, the counter IDs are issued from, and each entry's issue time.
// One instance each holds the registered drones (id_drone, D+, T+), the
// §VII-B1 cylindrical zones, the §VII-A1a flight sessions, the open
// real-time streams and the outstanding disclosure challenges; only the
// first two are persisted, the other three are swept by age.
type idStore[T any] struct {
	mu     sync.RWMutex
	prefix string // "drone", "zone3d", "session-<shard tag>", ...
	m      map[string]issued[T]
	next   int
}

type issued[T any] struct {
	v  T
	at time.Time
}

// newIDStore creates a store issuing "<kind>-0007". A non-empty tag (the
// server runs as one shard of a cluster) is folded in, "<kind>-<tag>-0007",
// so IDs issued by different shards never collide.
func newIDStore[T any](kind, tag string) *idStore[T] {
	if tag != "" {
		kind += "-" + tag
	}
	return &idStore[T]{prefix: kind, m: make(map[string]issued[T])}
}

// issue draws the next ID and files mk(id) under it.
func (st *idStore[T]) issue(now time.Time, mk func(id string) T) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	id := fmt.Sprintf("%s-%04d", st.prefix, st.next)
	st.m[id] = issued[T]{v: mk(id), at: now}
	return id
}

// put files v under an ID issued elsewhere — ring-side by the cluster
// router, or by this store before a restart or on another node — and
// moves the counter past it. It returns false, changing nothing, when the
// ID is taken: IDs are never reused, so a replayed record whose entry is
// already present is a no-op.
func (st *idStore[T]) put(now time.Time, id string, v T) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, taken := st.m[id]; taken {
		return false
	}
	st.m[id] = issued[T]{v: v, at: now}
	var n int
	if _, err := fmt.Sscanf(id, st.prefix+"-%d", &n); err == nil && n > st.next {
		st.next = n
	}
	return true
}

func (st *idStore[T]) get(id string) (T, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.m[id]
	return e.v, ok
}

// update replaces the value under id with fn's result in one critical
// section, so two racing updates cannot both act on the same old value.
// A missing id reports ok=false; fn's error leaves the entry unchanged.
func (st *idStore[T]) update(id string, fn func(T) (T, error)) (ok bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return false, nil
	}
	if e.v, err = fn(e.v); err == nil {
		st.m[id] = e
	}
	return true, err
}

func (st *idStore[T]) remove(id string) (T, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	delete(st.m, id)
	return e.v, ok
}

func (st *idStore[T]) len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// all returns every value sorted by ID (deterministic persistence).
func (st *idStore[T]) all() []T {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ids := make([]string, 0, len(st.m))
	for id := range st.m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]T, len(ids))
	for i, id := range ids {
		out[i] = st.m[id].v
	}
	return out
}

// sweep drops every entry issued at or before the cutoff and returns how
// many went. Sessions, streams and challenges are created by requests that
// need no proof of anything, so an abandoned one must age out.
func (st *idStore[T]) sweep(cutoff time.Time) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	removed := 0
	for id, e := range st.m {
		if !e.at.After(cutoff) {
			delete(st.m, id)
			removed++
		}
	}
	return removed
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
func (st *nonceStore) all() []walNonce {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]walNonce, 0, len(st.m))
	for n, seen := range st.m {
		out = append(out, walNonce{Nonce: n, Seen: seen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nonce < out[j].Nonce })
	return out
}

func (st *nonceStore) restore(n walNonce) {
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

// all returns the live digests in their record form, sorted (deterministic
// persistence).
func (st *digestStore) all() []walDigest {
	var out []walDigest
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for d, seen := range sh.m {
			out = append(out, walDigest{Digest: hex.EncodeToString(d[:]), Seen: seen})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}

func (st *digestStore) restore(d [32]byte, seen time.Time) {
	sh := &st.shards[d[0]%digestShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.m[d] = seen
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
// reveal, authenticated by their Merkle paths. It is its own
// recDisclosureRetained payload.
type retainedDisclosure struct {
	DroneID    string                 `json:"droneId"`
	Mode       string                 `json:"mode"` // poa.DisclosureSealed or poa.DisclosureCommit
	Times      []time.Time            `json:"times"`
	Root       []byte                 `json:"root,omitempty"`
	KeyEpoch   int                    `json:"keyEpoch,omitempty"`
	Entries    []privacy.SealedSample `json:"entries,omitempty"`
	SubmitTime time.Time              `json:"submitTime"`
	Seq        uint64                 `json:"seq,omitempty"`
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
// of their Seq order, and a replay must keep both. A record without a Seq
// was handed over by another shard, whose counter means nothing here, and
// is stamped like a new one.
func (st *seqStore[T]) restore(r T) {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, _, seq := r.retention()
	if seq == 0 {
		seq = st.seq + 1
		r = r.withSeq(seq)
	} else if _, dup := st.have[seq]; dup {
		return
	}
	st.have[seq] = struct{}{}
	st.seq = max(st.seq, seq)
	st.recs = append(st.recs, r)
}

// challengeRecord is one outstanding selective-disclosure challenge.
// Challenges are deliberately ephemeral, like sessions and open streams:
// a restart voids them and the zone owner re-accuses.
type challengeRecord struct {
	protocol.DisclosureChallenge        // as issued to the zone owner
	DisclosureSeq                uint64 // Seq of the retained disclosure it challenges
}
