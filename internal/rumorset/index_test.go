package rumorset

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// refSet is the naive reference ledger the ID-ordered index is checked
// against: a map of active IDs, one map of held IDs per node, and the
// documented semantics spelled out directly (expiry clears the column, revive
// clears the row, marks of inactive IDs are ignored).
type refSet struct {
	cap    int
	active map[ID]bool
	held   []map[ID]bool
	failed []bool
}

func newRefSet(n, maxInFlight int) *refSet {
	r := &refSet{cap: maxInFlight, active: map[ID]bool{}, failed: make([]bool, n)}
	for range n {
		r.held = append(r.held, map[ID]bool{})
	}
	return r
}

func (r *refSet) register(id ID) error {
	if r.active[id] {
		return nil
	}
	if len(r.active) == r.cap {
		return ErrFull
	}
	r.active[id] = true
	return nil
}

func (r *refSet) inject(node int, id ID) error {
	if err := r.register(id); err != nil {
		return err
	}
	r.held[node][id] = true
	return nil
}

func (r *refSet) expire(id ID) {
	delete(r.active, id)
	for _, h := range r.held {
		delete(h, id)
	}
}

func (r *refSet) markIDs(node int, ids []ID) int {
	fresh := 0
	for _, id := range ids {
		if r.active[id] && !r.held[node][id] {
			r.held[node][id] = true
			fresh++
		}
	}
	return fresh
}

func (r *refSet) liveInformed(id ID) int {
	c := 0
	for node, h := range r.held {
		if h[id] && !r.failed[node] {
			c++
		}
	}
	return c
}

func (r *refSet) liveNodes() int {
	c := 0
	for _, f := range r.failed {
		if !f {
			c++
		}
	}
	return c
}

func (r *refSet) expireConverged() int {
	live := r.liveNodes()
	if live == 0 {
		return 0
	}
	freed := 0
	for _, id := range r.sortedActive() {
		if r.liveInformed(id) >= live {
			r.expire(id)
			freed++
		}
	}
	return freed
}

func (r *refSet) sortedActive() []ID {
	ids := make([]ID, 0, len(r.active))
	for id := range r.active {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (r *refSet) sortedHeld(node int) []ID {
	ids := make([]ID, 0, len(r.held[node]))
	for id := range r.held[node] {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkIndex asserts the index invariants: actID strictly ascending, actSl
// parallel to it, and the index slots plus the free stack a partition of
// [0, cap).
func checkIndex(t *testing.T, s *Set) {
	t.Helper()
	if len(s.actID) != len(s.actSl) {
		t.Fatalf("index arrays disagree: %d ids, %d slots", len(s.actID), len(s.actSl))
	}
	for k := 1; k < len(s.actID); k++ {
		if s.actID[k-1] >= s.actID[k] {
			t.Fatalf("index not strictly ascending at %d: %v", k, s.actID)
		}
	}
	seen := make([]bool, s.cap)
	for _, sl := range append(slices.Clone(s.actSl), s.freeSl...) {
		if sl < 0 || sl >= s.cap || seen[sl] {
			t.Fatalf("slot %d out of range or owned twice (active %v, free %v)", sl, s.actSl, s.freeSl)
		}
		seen[sl] = true
	}
	if len(s.actSl)+len(s.freeSl) != s.cap {
		t.Fatalf("%d active + %d free slots, want %d", len(s.actSl), len(s.freeSl), s.cap)
	}
}

// checkAgainstRef asserts the set and the reference agree on every
// observable: the active IDs, each node's sorted holdings, and the live
// counts.
func checkAgainstRef(t *testing.T, s *Set, ref *refSet) {
	t.Helper()
	checkIndex(t, s)
	if got, want := s.ActiveIDs(nil), ref.sortedActive(); !slices.Equal(got, want) {
		t.Fatalf("ActiveIDs = %v, want %v", got, want)
	}
	for node := range ref.held {
		if got, want := s.AppendHeld(nil, node), ref.sortedHeld(node); !slices.Equal(got, want) {
			t.Fatalf("AppendHeld(node %d) = %v, want %v", node, got, want)
		}
	}
	for id := range ref.active {
		if got, want := s.LiveInformed(id), ref.liveInformed(id); got != want {
			t.Fatalf("LiveInformed(%d) = %d, want %d", id, got, want)
		}
	}
	if got, want := s.LiveNodes(), ref.liveNodes(); got != want {
		t.Fatalf("LiveNodes = %d, want %d", got, want)
	}
}

// summaryInput draws a MarkIDs argument in one of three shapes: a strictly
// ascending summary, the same IDs shuffled, or several ascending summaries
// concatenated (the scenario wide path's merged inbox). IDs are drawn from
// the active set and from the whole ID range, so stale IDs are mixed in.
func summaryInput(rng *rand.Rand, ref *refSet, idRange int) []ID {
	draw := func() []ID {
		var ids []ID
		for id := range ref.active {
			if rng.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		for range rng.Intn(4) {
			ids = append(ids, ID(rng.Intn(idRange)))
		}
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	switch rng.Intn(3) {
	case 0:
		return draw()
	case 1:
		ids := draw()
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		return ids
	default:
		var ids []ID
		for range 1 + rng.Intn(3) {
			ids = append(ids, draw()...)
		}
		return ids
	}
}

// TestIndexMatchesReference drives random Inject/Register/Retire/Expire/
// ExpireConverged/Fail/Revive/MarkIDs sequences against the naive map-based
// reference. IDs come from a small range, so retired lower IDs are
// re-injected and land mid-index, and the window fills (ErrFull must agree).
func TestIndexMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name           string
		n, cap, idSpan int
	}{
		{"one-word", 5, 12, 40},
		{"three-words", 4, 130, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				s := newSet(t, tc.n, tc.cap)
				ref := newRefSet(tc.n, tc.cap)
				for step := 0; step < 3000; step++ {
					node := rng.Intn(tc.n)
					id := ID(rng.Intn(tc.idSpan))
					switch op := rng.Intn(10); op {
					case 0, 1:
						err, want := s.Inject(node, id), ref.inject(node, id)
						if errors.Is(err, ErrFull) != errors.Is(want, ErrFull) {
							t.Fatalf("seed %d step %d: Inject(%d, %d) = %v, reference %v", seed, step, node, id, err, want)
						}
					case 2:
						err, want := s.Register(id), ref.register(id)
						if errors.Is(err, ErrFull) != errors.Is(want, ErrFull) {
							t.Fatalf("seed %d step %d: Register(%d) = %v, reference %v", seed, step, id, err, want)
						}
					case 3:
						// Retire an active ID (or a stale one, which is a no-op).
						if act := ref.sortedActive(); len(act) > 0 && rng.Intn(4) > 0 {
							id = act[rng.Intn(len(act))]
						}
						s.Retire(id)
						ref.expire(id)
					case 4:
						s.Expire(id)
						ref.expire(id)
					case 5:
						if got, want := s.ExpireConverged(), ref.expireConverged(); got != want {
							t.Fatalf("seed %d step %d: ExpireConverged freed %d, reference %d", seed, step, got, want)
						}
					case 6:
						s.Fail(node)
						ref.failed[node] = true
					case 7:
						s.Revive(node)
						if ref.failed[node] {
							ref.failed[node] = false
							clear(ref.held[node])
						}
					default:
						ids := summaryInput(rng, ref, tc.idSpan)
						if got, want := s.MarkIDs(node, ids), ref.markIDs(node, ids); got != want {
							t.Fatalf("seed %d step %d: MarkIDs(%d, %v) fresh = %d, reference %d", seed, step, node, ids, got, want)
						}
					}
					checkAgainstRef(t, s, ref)
				}
			}
		})
	}
}

// TestHotPathAllocs locks the rumor-stream hot path allocation-free: with
// reused buffers, AppendHeld and MarkIDs allocate nothing.
func TestHotPathAllocs(t *testing.T) {
	const n, window = 8, 256
	s := newSet(t, n, window)
	var ids []ID
	for id := ID(0); id < window; id++ {
		if err := s.Inject(int(id)%n, id*3); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id*3)
	}
	s.Retire(ids[:window/4]...) // stale IDs in the summary are skipped
	buf := make([]ID, 0, window)
	if avg := testing.AllocsPerRun(100, func() { buf = s.AppendHeld(buf[:0], 1) }); avg != 0 {
		t.Errorf("AppendHeld allocates %.1f times, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { s.MarkIDs(2, ids) }); avg != 0 {
		t.Errorf("MarkIDs allocates %.1f times, want 0", avg)
	}
	if got := s.AppendHeld(buf[:0], 2); !slices.Equal(got, ids[window/4:]) {
		t.Fatalf("node 2 holds %d rumors after marking the summary, want %d", len(got), len(ids)-window/4)
	}
}
