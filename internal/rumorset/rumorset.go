// Package rumorset tracks an unbounded stream of rumors through a bounded
// in-flight window, lifting the 64-rumor ceiling of the phonecall bitmask
// tracker (which remains the small-set specialization for ≤64 dense IDs).
//
// Rumor IDs come from an unbounded uint32 space; at any moment at most
// MaxInFlight of them are active. Each active rumor owns a slot in a flat
// per-node bit arena, so a node's holdings stay one cache-friendly bit row.
// The active rumors are listed once, in an ID-ordered index (parallel ID and
// slot arrays, strictly ascending by ID): AppendHeld walks it and emits a
// node's holdings already sorted, MarkIDs resolves a sorted summary by one
// linear merge against it, and single-ID lookups binary-search it. Stream IDs
// increase, so registering a rumor almost always appends. When a rumor
// converges (every live node holds it) it is expired: it leaves the index
// and its slot is reclaimed for the next injection. On the wire, summaries
// carry rumor IDs — never slots — so a stale frame advertising an expired
// rumor finds no index entry and is ignored instead of mis-marking whatever
// rumor reused the slot.
//
// Concurrency contract: Mark/MarkIDs/Has/AppendHeld take the table read lock
// and may run concurrently; marks for node i must come from i's owner (its
// goroutine or engine shard), mirroring the engines' callback contract — a
// node's holdings row has exactly one concurrent writer. Everything that changes the
// table shape — Register, Inject, Expire, ExpireConverged, Fail, Revive —
// takes the write lock and is coordinator/monitor-only. Holdings bits are set
// with atomic Or under the read lock and cleared only under the write lock,
// so setters never race the clearing scan.
package rumorset

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// ID identifies one rumor in the unbounded stream. The zero value is a valid
// rumor ID; the phonecall bitmask tracker's RumorID is the dense [0,64)
// prefix of this space.
type ID uint32

// ErrFull reports that the in-flight window is exhausted: every slot holds an
// unconverged rumor, so injection must stall until GC reclaims one. Callers
// test for it with errors.Is to implement backpressure.
var ErrFull = errors.New("rumorset: in-flight rumor window full")

// Set is the scalable rumor ledger: registered in-flight rumors, per-node
// holdings, per-rumor live-informed counts, and expiry/GC of converged
// rumors.
type Set struct {
	n     int // nodes
	cap   int // max in-flight rumors (slots)
	words int // ceil(cap/64): bit words per node row

	mu sync.RWMutex
	// actID/actSl are the ID-ordered active index: actID strictly ascending,
	// actSl[k] the slot of rumor actID[k]. Only register and expireAt change
	// them, under the write lock; both are preallocated to the window, so
	// they never grow.
	actID  []ID
	actSl  []int
	freeSl []int  // free slot stack
	failed []bool // per node; written under mu, read by Mark under RLock
	liveN  int    // nodes not currently failed

	// held is the flat holdings arena: node i's row is
	// held[i*words : (i+1)*words], bit s of the row = slot s. Bits are set
	// atomically under RLock (any goroutine) and cleared under Lock
	// (expiry, revive).
	held []atomic.Uint64

	// live counts live-informed nodes per slot. It is the convergence
	// authority for the coordinator-driven engines (sim, lock-step), where
	// churn and expiry happen between rounds; the free-running monitor uses
	// ScanConverged instead and treats these as advisory.
	live []atomic.Int64

	acc []uint64 // ScanConverged scratch accumulator (monitor-only)

	injected  atomic.Int64
	converged atomic.Int64
	expired   atomic.Int64
	lost      atomic.Int64 // injects landing on currently-failed nodes
}

// Stats is a counter snapshot for reporting and telemetry.
type Stats struct {
	Active    int   // rumors currently in flight
	Injected  int64 // total registrations (stream injections)
	Converged int64 // rumors expired because every live node held them
	Expired   int64 // total slot reclamations (converged + forced)
	Lost      int64 // injects that landed on a failed node (revive erases them)
}

// New returns an empty set for n nodes with at most maxInFlight concurrently
// active rumors.
func New(n, maxInFlight int) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rumorset: need at least one node, got %d", n)
	}
	if maxInFlight <= 0 {
		return nil, fmt.Errorf("rumorset: need a positive in-flight window, got %d", maxInFlight)
	}
	words := (maxInFlight + 63) / 64
	s := &Set{
		n:      n,
		cap:    maxInFlight,
		words:  words,
		actID:  make([]ID, 0, maxInFlight),
		actSl:  make([]int, 0, maxInFlight),
		freeSl: make([]int, 0, maxInFlight),
		failed: make([]bool, n),
		liveN:  n,
		held:   make([]atomic.Uint64, n*words),
		live:   make([]atomic.Int64, maxInFlight),
		acc:    make([]uint64, words),
	}
	for sl := maxInFlight - 1; sl >= 0; sl-- {
		s.freeSl = append(s.freeSl, sl)
	}
	return s, nil
}

// Cap returns the in-flight window size.
func (s *Set) Cap() int { return s.cap }

// Nodes returns the node count.
func (s *Set) Nodes() int { return s.n }

// Register makes the rumor active, assigning it a slot. Registering an
// already-active ID is a no-op. A previously-expired ID may be re-registered:
// it gets a fresh slot with fresh counts (re-injection of a converged rumor
// is a new epoch of that rumor). Returns ErrFull when the window is
// exhausted. Coordinator-only.
func (s *Set) Register(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.register(id)
	return err
}

// register activates id and returns its slot. Caller holds the write lock.
func (s *Set) register(id ID) (int, error) {
	k, ok := slices.BinarySearch(s.actID, id)
	if ok {
		return s.actSl[k], nil
	}
	if len(s.freeSl) == 0 {
		return 0, fmt.Errorf("%w (cap %d)", ErrFull, s.cap)
	}
	sl := s.freeSl[len(s.freeSl)-1]
	s.freeSl = s.freeSl[:len(s.freeSl)-1]
	s.actID = slices.Insert(s.actID, k, id)
	s.actSl = slices.Insert(s.actSl, k, sl)
	s.live[sl].Store(0)
	s.injected.Add(1)
	return sl, nil
}

// slot returns the slot of an active rumor. Caller holds mu (either mode).
func (s *Set) slot(id ID) (int, bool) {
	k, ok := slices.BinarySearch(s.actID, id)
	if !ok {
		return 0, false
	}
	return s.actSl[k], true
}

// Inject registers the rumor and marks node as holding it. Injecting at a
// currently-failed node still sets the bit (mirroring the bitmask tracker)
// but counts as lost, because Revive erases it again. Coordinator-only.
func (s *Set) Inject(node int, id ID) error {
	if node < 0 || node >= s.n {
		return fmt.Errorf("rumorset: inject node %d outside [0,%d)", node, s.n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, err := s.register(id)
	if err != nil {
		return err
	}
	if s.failed[node] {
		s.lost.Add(1)
	}
	s.markLocked(node, sl)
	return nil
}

// markLocked sets the holdings bit for (node, slot) and bumps the live count
// on a fresh mark of a live node. Caller holds mu (either mode).
func (s *Set) markLocked(node, sl int) {
	word := &s.held[node*s.words+sl>>6]
	mask := uint64(1) << (sl & 63)
	// Load-then-Or instead of testing Or's return value: per the ownership
	// contract, node i's row is written either by i's owner goroutine (under
	// RLock) or under the exclusive write lock, so the check-then-set pair
	// cannot interleave with another setter of the same row.
	if word.Load()&mask != 0 {
		return
	}
	word.Or(mask)
	if !s.failed[node] {
		s.live[sl].Add(1)
	}
}

// Mark records that node holds the rumor. Unknown (never-registered or
// already-expired) IDs are ignored — this is the ABA guard for stale wire
// summaries. Callable from node's owner goroutine only.
func (s *Set) Mark(node int, id ID) {
	s.mu.RLock()
	if sl, ok := s.slot(id); ok {
		s.markLocked(node, sl)
	}
	s.mu.RUnlock()
}

// MarkIDs merges a decoded summary into node's holdings: every known ID is
// marked, unknown IDs are skipped, and the number of fresh marks is returned.
// A summary is strictly ascending, so the IDs are resolved by one linear
// merge against the active index; a descending step (several summaries
// concatenated) restarts the merge with a binary search. Callable from
// node's owner goroutine only.
func (s *Set) MarkIDs(node int, ids []ID) int {
	fresh := 0
	s.mu.RLock()
	act, k := s.actID, 0
	for x, id := range ids {
		if x > 0 && id < ids[x-1] {
			k, _ = slices.BinarySearch(act, id)
		}
		for k < len(act) && act[k] < id {
			k++
		}
		if k == len(act) || act[k] != id {
			continue
		}
		sl := s.actSl[k]
		word := &s.held[node*s.words+sl>>6]
		mask := uint64(1) << (sl & 63)
		if word.Load()&mask != 0 {
			continue
		}
		word.Or(mask)
		fresh++
		if !s.failed[node] {
			s.live[sl].Add(1)
		}
	}
	s.mu.RUnlock()
	return fresh
}

// Has reports whether node currently holds the (active) rumor.
func (s *Set) Has(node int, id ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sl, ok := s.slot(id)
	if !ok {
		return false
	}
	return s.held[node*s.words+sl>>6].Load()&(1<<(sl&63)) != 0
}

// LiveInformed returns the number of live nodes holding the rumor, or 0 for
// inactive IDs.
func (s *Set) LiveInformed(id ID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sl, ok := s.slot(id)
	if !ok {
		return 0
	}
	return int(s.live[sl].Load())
}

// AppendHeld appends the sorted IDs of every active rumor node holds to dst
// and returns the extended slice. It walks the ID-ordered index, so the
// result comes out ascending and feeds AppendSummary directly. Callable from
// any node goroutine.
func (s *Set) AppendHeld(dst []ID, node int) []ID {
	s.mu.RLock()
	row := s.held[node*s.words : (node+1)*s.words]
	for k, sl := range s.actSl {
		if row[sl>>6].Load()&(1<<(sl&63)) != 0 {
			dst = append(dst, s.actID[k])
		}
	}
	s.mu.RUnlock()
	return dst
}

// HeldCount returns how many active rumors node holds.
func (s *Set) HeldCount(node int) int {
	c := 0
	s.mu.RLock()
	row := s.held[node*s.words : (node+1)*s.words]
	for w := range row {
		c += bits.OnesCount64(row[w].Load())
	}
	s.mu.RUnlock()
	return c
}

// ActiveIDs appends the sorted IDs of all in-flight rumors to dst.
// Coordinator/monitor-only.
func (s *Set) ActiveIDs(dst []ID) []ID {
	s.mu.RLock()
	dst = append(dst, s.actID...)
	s.mu.RUnlock()
	return dst
}

// Active returns the number of in-flight rumors.
func (s *Set) Active() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.actID)
}

// Snapshot returns the current counters.
func (s *Set) Snapshot() Stats {
	s.mu.RLock()
	active := len(s.actID)
	s.mu.RUnlock()
	return Stats{
		Active:    active,
		Injected:  s.injected.Load(),
		Converged: s.converged.Load(),
		Expired:   s.expired.Load(),
		Lost:      s.lost.Load(),
	}
}

// Expire reclaims the rumors' slots without requiring convergence (forced
// GC). Inactive IDs are ignored. Coordinator/monitor-only.
func (s *Set) Expire(ids ...ID) {
	s.mu.Lock()
	for _, id := range ids {
		s.expireLocked(id, false)
	}
	s.mu.Unlock()
}

// Retire expires the rumors, counting them as converged — for callers that
// detected convergence themselves (the scenario driver's completion scan, the
// free-running monitor's ScanConverged). Inactive IDs are ignored.
// Coordinator/monitor-only.
func (s *Set) Retire(ids ...ID) {
	s.mu.Lock()
	for _, id := range ids {
		s.expireLocked(id, true)
	}
	s.mu.Unlock()
}

// ExpireConverged scans the in-flight set and expires every rumor held by all
// live nodes (per the live counters), returning how many it reclaimed. This
// is the GC step for the coordinator-driven engines, run between rounds.
func (s *Set) ExpireConverged() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.liveN == 0 {
		return 0
	}
	freed := 0
	for k := 0; k < len(s.actSl); {
		if int(s.live[s.actSl[k]].Load()) >= s.liveN {
			s.expireAt(k, true)
			freed++
		} else {
			k++
		}
	}
	return freed
}

// expireLocked expires the rumor if it is active. Caller holds the write
// lock.
func (s *Set) expireLocked(id ID, wasConverged bool) {
	if k, ok := slices.BinarySearch(s.actID, id); ok {
		s.expireAt(k, wasConverged)
	}
}

// expireAt removes index entry k, frees its slot and clears the slot's bit
// column across all node rows. Caller holds the write lock.
func (s *Set) expireAt(k int, wasConverged bool) {
	sl := s.actSl[k]
	s.actID = slices.Delete(s.actID, k, k+1)
	s.actSl = slices.Delete(s.actSl, k, k+1)
	s.freeSl = append(s.freeSl, sl)
	w, mask := sl>>6, uint64(1)<<(sl&63)
	for node := 0; node < s.n; node++ {
		s.held[node*s.words+w].And(^mask)
	}
	s.live[sl].Store(0)
	s.expired.Add(1)
	if wasConverged {
		s.converged.Add(1)
	}
}

// ScanConverged appends, in ascending ID order, the IDs of in-flight rumors
// held by every node for which isLive reports true. It is the race-free
// convergence authority for the free-running engine: rather than trusting
// the advisory live counters (which churn can skew while nodes run), it ANDs
// the holdings rows of the live nodes word-wise. Rumors with zero live nodes
// are not reported. The caller expires the returned IDs with Expire.
// Monitor-only (the scratch accumulator is not reentrant).
func (s *Set) ScanConverged(dst []ID, isLive func(node int) bool) []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for w := range s.acc {
		s.acc[w] = ^uint64(0)
	}
	liveNodes := 0
	for node := 0; node < s.n; node++ {
		if !isLive(node) {
			continue
		}
		liveNodes++
		row := s.held[node*s.words : (node+1)*s.words]
		for w := range row {
			s.acc[w] &= row[w].Load()
		}
	}
	if liveNodes == 0 {
		return dst
	}
	for k, sl := range s.actSl {
		if s.acc[sl>>6]&(1<<(sl&63)) != 0 {
			dst = append(dst, s.actID[k])
		}
	}
	return dst
}

// Fail marks nodes failed, decrementing the live counters for every rumor
// they hold (mirroring phonecall.RumorTracker.Fail). Already-failed and
// out-of-range indexes are ignored. Coordinator/monitor-only.
func (s *Set) Fail(nodes ...int) {
	s.mu.Lock()
	for _, node := range nodes {
		if node < 0 || node >= s.n || s.failed[node] {
			continue
		}
		s.failed[node] = true
		s.liveN--
		row := s.held[node*s.words : (node+1)*s.words]
		for w := range row {
			word := row[w].Load()
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				s.live[w<<6+b].Add(-1)
			}
		}
	}
	s.mu.Unlock()
}

// Revive rejoins failed nodes in the uninformed state: their holdings are
// cleared (rejoin-uninformed, like the bitmask tracker). Live and
// out-of-range indexes are ignored. Coordinator/monitor-only.
func (s *Set) Revive(nodes ...int) {
	s.mu.Lock()
	for _, node := range nodes {
		if node < 0 || node >= s.n || !s.failed[node] {
			continue
		}
		s.failed[node] = false
		s.liveN++
		row := s.held[node*s.words : (node+1)*s.words]
		for w := range row {
			row[w].Store(0)
		}
	}
	s.mu.Unlock()
}

// LiveNodes returns the number of nodes not currently failed.
func (s *Set) LiveNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveN
}
