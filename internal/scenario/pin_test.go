package scenario

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/policy"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/pins.json from the current driver")

const pinsFile = "testdata/pins.json"

// pinCase is one pinned scenario execution.
type pinCase struct {
	name string
	sc   Scenario
	cfg  Config
}

// pinCases is the fixed table the committed pins cover: every algorithm on
// both holdings formats (the bitmask and a MaxInFlight rumor-set window)
// under crash, join, loss, zone and partition events, a CorruptAt on the
// bitmask rows, and one sparse-ID run whose window is reused by a
// re-injection.
func pinCases(t *testing.T) []pinCase {
	const n = 240
	table, err := policy.ZoneTable(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	churn := []Event{
		InjectRumor{At: 1, Node: 0, Rumor: 0},
		InjectRumor{At: 3, Node: 7, Rumor: 5},
		Loss{At: 4, Rate: 0.1, Seed: 3},
		CrashAt{At: 6, Nodes: []int{10, 11, 12, 13, 14, 40, 41, 42}},
		InjectRumor{At: 8, Node: 12, Rumor: 9}, // lands on a crashed node
		JoinAt{At: 12, Nodes: []int{10, 11, 12, 13}},
		ZoneOutage{At: 14, Zone: 1},
		Partition{At: 16},
		ZoneHeal{At: 18, Zone: 1},
		HealPartition{At: 22},
		Loss{At: 24, Rate: 0},
		InjectRumor{At: 26, Node: 3, Rumor: 2},
	}
	var out []pinCase
	for _, algo := range Algorithms() {
		for _, seed := range []uint64{1, 7} {
			cfg := Config{Seed: seed, Workers: 2, Topology: table}
			bitmask := Scenario{N: n, Rounds: 40, Algorithm: algo, Events: append(append([]Event(nil), churn...),
				CorruptAt{At: 10, Nodes: []int{20, 21}, Adversary: AdversarySpec{Kind: AdvStale}},
				CorruptAt{At: 10, Nodes: []int{30}, Adversary: AdversarySpec{Kind: AdvSpammer, Rate: 0.5, Seed: seed}},
				CorruptAt{At: 20, Nodes: []int{50}, Adversary: AdversarySpec{Kind: AdvLiar, Seed: seed}},
			)}
			set := Scenario{N: n, Rounds: 40, Algorithm: algo, Events: churn, MaxInFlight: 8}
			out = append(out,
				pinCase{fmt.Sprintf("%s/bitmask/seed%d", algo, seed), bitmask, cfg},
				pinCase{fmt.Sprintf("%s/set/seed%d", algo, seed), set, cfg})
		}
		sparse := Scenario{N: 64, Rounds: 60, Algorithm: algo, MaxInFlight: 2, Events: []Event{
			InjectRumor{At: 1, Node: 0, Rumor: 100},
			InjectRumor{At: 1, Node: 9, Rumor: 4000000000},
			CrashAt{At: 5, Nodes: []int{3, 4}},
			InjectRumor{At: 25, Node: 5, Rumor: 70000},
			InjectRumor{At: 25, Node: 6, Rumor: 100}, // re-injection after retirement
			JoinAt{At: 30, Nodes: []int{3}},
		}}
		out = append(out, pinCase{fmt.Sprintf("%s/set-sparse", algo), sparse, Config{Seed: 5, Workers: 1}})
	}
	return out
}

// TestScenarioPins compares every pinned execution to testdata/pins.json.
// Bitmask rows must match exactly; rumor-set rows may differ only in a nil
// versus an empty phase Informed slice.
func TestScenarioPins(t *testing.T) {
	cases := pinCases(t)
	got := make(map[string]Result, len(cases))
	for _, tc := range cases {
		res, err := Run(context.Background(), tc.sc, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = res
	}
	if *updatePins {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(pinsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(pinsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("%s holds %d pins, the table has %d cases", pinsFile, len(want), len(cases))
	}
	for _, tc := range cases {
		w, ok := want[tc.name]
		if !ok {
			t.Errorf("%s: no pin", tc.name)
			continue
		}
		g := got[tc.name]
		if tc.sc.Wide() {
			g, w = emptyInformedAsNil(g), emptyInformedAsNil(w)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s drifted from its pin:\n got  %+v\n want %+v", tc.name, g, w)
		}
	}
}

// emptyInformedAsNil returns a copy of res whose empty phase Informed slices
// are nil.
func emptyInformedAsNil(res Result) Result {
	res.Phases = append([]PhaseReport(nil), res.Phases...)
	for i := range res.Phases {
		if len(res.Phases[i].Informed) == 0 {
			res.Phases[i].Informed = nil
		}
	}
	return res
}
