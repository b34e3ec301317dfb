package rumorset

import (
	"slices"
	"testing"
)

// fuzzActive is the active set FuzzSummaryCodec marks decoded summaries
// against: a dense prefix, sparse IDs, and both ends of the uint32 space.
var fuzzActive = []ID{0, 1, 2, 3, 5, 8, 13, 21, 127, 128, 300, 1 << 14, 1 << 21, 1 << 31, 1<<32 - 2, 1<<32 - 1}

// FuzzSummaryCodec feeds arbitrary bytes to the summary decoder. It must
// never panic; every accepted summary must round-trip at the ID level
// (decode → AppendSummary → decode gives the same IDs, consuming exactly the
// re-encoding), SummarySize must equal the encoded length, and MarkIDs of
// the decoded IDs — ascending, reversed, and concatenated with itself — must
// match the naive reference.
func FuzzSummaryCodec(f *testing.F) {
	f.Add(AppendSummary(nil, nil))
	f.Add(AppendSummary(nil, []ID{0, 1, 2, 3}))
	f.Add(AppendSummary(nil, []ID{5, 300, 1 << 21, 1<<32 - 1}))
	f.Add(AppendSummary(nil, fuzzActive))
	// Malformed and non-canonical inputs live in testdata/fuzz/FuzzSummaryCodec.

	f.Fuzz(func(t *testing.T, data []byte) {
		ids, n, err := DecodeSummary(nil, data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		for k := 1; k < len(ids); k++ {
			if ids[k-1] >= ids[k] {
				t.Fatalf("decoded summary not strictly ascending: %v", ids)
			}
		}
		wire := AppendSummary(nil, ids)
		if size := SummarySize(ids); size != len(wire) {
			t.Fatalf("SummarySize = %d, encoded length %d", size, len(wire))
		}
		again, m, err := DecodeSummary(nil, wire)
		if err != nil {
			t.Fatalf("re-encoded summary does not decode: %v", err)
		}
		if m != len(wire) || !slices.Equal(again, ids) {
			t.Fatalf("round trip: %v (%d of %d bytes), want %v", again, m, len(wire), ids)
		}

		s, err := New(3, len(fuzzActive))
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSet(3, len(fuzzActive))
		for _, id := range fuzzActive {
			if err := s.Register(id); err != nil {
				t.Fatal(err)
			}
			ref.register(id)
		}
		reversed := slices.Clone(ids)
		slices.Reverse(reversed)
		for node, in := range [][]ID{ids, reversed, append(slices.Clone(ids), ids...)} {
			if got, want := s.MarkIDs(node, in), ref.markIDs(node, in); got != want {
				t.Fatalf("node %d: MarkIDs fresh = %d, reference %d", node, got, want)
			}
			if got, want := s.AppendHeld(nil, node), ref.sortedHeld(node); !slices.Equal(got, want) {
				t.Fatalf("node %d: holds %v, reference %v", node, got, want)
			}
		}
	})
}
