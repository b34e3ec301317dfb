package scenario

import (
	"context"
	"errors"
	"testing"

	"repro/internal/phonecall"
	"repro/internal/rumorset"
)

// TestWideMatchesBitmaskPath is the conformance check for the rumor-set
// ledger: the same small scenario run once on the bitmask ledger and once
// forced onto the rumor set (MaxInFlight set) must reach identical per-rumor
// fates — same completion rounds, same informed counts. (Traffic totals
// legitimately differ: the rumor set retires converged rumors and stops
// re-advertising them.) The churn case adds a crash wave, a rejoin and a
// late inject at a rejoined node, over several seeds.
func TestWideMatchesBitmaskPath(t *testing.T) {
	for _, algo := range Algorithms() {
		t.Run(string(algo), func(t *testing.T) {
			events := []Event{
				InjectRumor{At: 1, Node: 0, Rumor: 0},
				InjectRumor{At: 3, Node: 5, Rumor: 7},
				InjectRumor{At: 6, Node: 9, Rumor: 13},
				Loss{At: 4, Rate: 0.05, Seed: 11},
			}
			checkFormatsAgree(t, Scenario{N: 48, Rounds: 60, Algorithm: algo, Events: events}, 42)
			t.Run("churn", func(t *testing.T) {
				churn := []Event{
					InjectRumor{At: 1, Node: 0, Rumor: 0},
					InjectRumor{At: 3, Node: 5, Rumor: 7},
					Loss{At: 4, Rate: 0.05, Seed: 11},
					CrashAt{At: 5, Nodes: []int{1, 2, 3, 4, 20, 21, 22, 30}},
					JoinAt{At: 14, Nodes: []int{1, 2, 20, 21}},
					InjectRumor{At: 18, Node: 2, Rumor: 13}, // late, at a rejoined node
				}
				for seed := uint64(1); seed <= 20; seed++ {
					checkFormatsAgree(t, Scenario{N: 48, Rounds: 60, Algorithm: algo, Events: churn}, seed)
				}
			})
		})
	}
}

// checkFormatsAgree runs base on the bitmask ledger and again with an 8-slot
// rumor-set window, and compares the per-rumor fates.
func checkFormatsAgree(t *testing.T, base Scenario, seed uint64) {
	t.Helper()
	wide := base
	wide.MaxInFlight = 8
	if base.Wide() || !wide.Wide() {
		t.Fatal("wideness detection broken")
	}
	cfg := Config{Seed: seed}
	rb, err := Run(context.Background(), base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := Run(context.Background(), wide, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Rumors) != len(rw.Rumors) {
		t.Fatalf("seed %d: rumor counts differ: bitmask %d, wide %d", seed, len(rb.Rumors), len(rw.Rumors))
	}
	for i := range rb.Rumors {
		b, w := rb.Rumors[i], rw.Rumors[i]
		if b.Rumor != w.Rumor || b.InjectRound != w.InjectRound {
			t.Fatalf("seed %d: rumor %d identity differs: %+v vs %+v", seed, i, b, w)
		}
		if b.CompletionRound != w.CompletionRound {
			t.Errorf("seed %d: rumor %d completion: bitmask %d, wide %d", seed, b.Rumor, b.CompletionRound, w.CompletionRound)
		}
		if b.CompletionRound == 0 && b.LiveInformed != w.LiveInformed {
			t.Errorf("seed %d: rumor %d informed: bitmask %d, wide %d", seed, b.Rumor, b.LiveInformed, w.LiveInformed)
		}
	}
}

// TestWideBeyondBitmask runs a workload the bitmask path cannot express —
// rumor IDs far past 64, more distinct rumors than 64 — to convergence with
// GC active, checking the fate ledger and the expiry counters.
func TestWideBeyondBitmask(t *testing.T) {
	const n, stream = 32, 96
	var events []Event
	for k := 0; k < stream; k++ {
		// Sparse IDs: every 1000th, starting at 100. Injected in waves so the
		// 48-slot window never overflows before GC frees slots.
		events = append(events, InjectRumor{
			At:    1 + (k/16)*8,
			Node:  k % n,
			Rumor: phonecall.RumorID(100 + 1000*k),
		})
	}
	sc := Scenario{N: n, Rounds: 120, Algorithm: AlgoPushPull, Events: events, MaxInFlight: 48}
	res, err := Run(context.Background(), sc, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rumors) != stream {
		t.Fatalf("fate ledger has %d rumors, want %d", len(res.Rumors), stream)
	}
	for _, ro := range res.Rumors {
		if ro.CompletionRound == 0 {
			t.Errorf("rumor %d never converged (informed %d/%d)", ro.Rumor, ro.LiveInformed, res.Live)
		}
		if ro.LiveFraction != 1 {
			t.Errorf("rumor %d fraction %v, want 1", ro.Rumor, ro.LiveFraction)
		}
	}
	if res.RumorsExpired != stream {
		t.Errorf("expired %d rumors, want %d (GC inactive?)", res.RumorsExpired, stream)
	}
}

// TestWideWindowOverflow pins the backpressure contract on preplanned
// timelines: injecting more concurrent rumors than the window holds aborts
// with an errors.Is-able rumorset.ErrFull.
func TestWideWindowOverflow(t *testing.T) {
	events := []Event{
		InjectRumor{At: 1, Node: 0, Rumor: 1},
		InjectRumor{At: 1, Node: 1, Rumor: 2},
		InjectRumor{At: 1, Node: 2, Rumor: 3},
	}
	sc := Scenario{N: 8, Rounds: 10, Events: events, MaxInFlight: 2}
	_, err := Run(context.Background(), sc, Config{Seed: 1})
	if !errors.Is(err, rumorset.ErrFull) {
		t.Fatalf("3 concurrent rumors in a 2-slot window: got %v, want ErrFull", err)
	}
}

// TestWideLostInjects pins the dead-node inject accounting on both paths: an
// InjectRumor aimed at a node that is down at that round is counted, and the
// revived node rejoins without the rumor.
func TestWideLostInjects(t *testing.T) {
	events := []Event{
		InjectRumor{At: 1, Node: 0, Rumor: 0},
		CrashAt{At: 2, Nodes: []int{3}},
		InjectRumor{At: 3, Node: 3, Rumor: 1}, // lands on the crashed node
		JoinAt{At: 5, Nodes: []int{3}},
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"bitmask", Scenario{N: 8, Rounds: 30, Events: events}},
		{"wide", Scenario{N: 8, Rounds: 30, Events: events, MaxInFlight: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.sc, Config{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.LostInjects != 1 {
				t.Fatalf("LostInjects = %d, want 1", res.LostInjects)
			}
		})
	}
}

// TestWideReinjection pins epoch semantics end to end: a rumor retired by GC
// can be injected again later and spreads again as a fresh epoch.
func TestWideReinjection(t *testing.T) {
	events := []Event{
		InjectRumor{At: 1, Node: 0, Rumor: 500},
		InjectRumor{At: 40, Node: 3, Rumor: 500}, // long after first convergence
	}
	sc := Scenario{N: 16, Rounds: 80, Events: events, MaxInFlight: 4}
	res, err := Run(context.Background(), sc, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rumors) != 1 {
		t.Fatalf("ledger entries = %d, want 1", len(res.Rumors))
	}
	ro := res.Rumors[0]
	if ro.CompletionRound < 40 {
		t.Fatalf("completion %d predates the re-injection epoch", ro.CompletionRound)
	}
	if res.RumorsExpired != 2 {
		t.Fatalf("expired %d, want 2 (one per epoch)", res.RumorsExpired)
	}
}

// TestWideWorkerInvariance extends the engine's bit-identical-across-shards
// guarantee to the wide path.
func TestWideWorkerInvariance(t *testing.T) {
	var events []Event
	for k := 0; k < 80; k++ {
		events = append(events, InjectRumor{At: 1 + k/20, Node: k % 24, Rumor: phonecall.RumorID(k * 3)})
	}
	events = append(events, CrashAt{At: 10, Nodes: []int{1, 2}}, JoinAt{At: 20, Nodes: []int{1}})
	sc := Scenario{N: 24, Rounds: 60, Algorithm: AlgoPush, Events: events, MaxInFlight: 128}
	var first Result
	for i, workers := range []int{1, 3, 8} {
		res, err := Run(context.Background(), sc, Config{Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			continue
		}
		if res.Messages != first.Messages || res.Bits != first.Bits {
			t.Fatalf("workers=%d traffic (%d msgs, %d bits) differs from workers=1 (%d, %d)",
				workers, res.Messages, res.Bits, first.Messages, first.Bits)
		}
		for j := range first.Rumors {
			if res.Rumors[j] != first.Rumors[j] {
				t.Fatalf("workers=%d rumor %d fate %+v differs from %+v",
					workers, first.Rumors[j].Rumor, res.Rumors[j], first.Rumors[j])
			}
		}
	}
}
