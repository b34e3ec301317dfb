package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// tinySpec is a complete dynamic-network spec small enough for a smoke test:
// one rumor, a crash wave, a rejoin and a loss phase over 500 nodes.
const tinySpec = `{
  "name": "smoke",
  "n": 500,
  "rounds": 16,
  "algorithm": "push-pull",
  "seed": 3,
  "events": [
    {"type": "inject", "round": 1, "node": 0, "rumor": 0},
    {"type": "loss", "round": 2, "rate": 0.1, "seed": 7},
    {"type": "crash", "round": 5, "count": 50, "pick_seed": 11},
    {"type": "join", "round": 10, "count": 20, "pick_seed": 11}
  ]
}`

// TestRunSpecSmoke runs the tiny spec end to end and asserts the per-phase
// trace markers.
func TestRunSpecSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"-spec", path, "-workers", "2"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, marker := range []string{
		`scenario "smoke"`, "event @5: crash 50 nodes", "event @10: join 20 nodes",
		"final:", "rumor 0 (injected round 1)",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q:\n%s", marker, out)
		}
	}
}

// TestRunAlgoOverride checks the -algo flag replaces the spec's protocol.
func TestRunAlgoOverride(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"-spec", path, "-algo", "pull"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "algorithm=pull") {
		t.Errorf("algorithm override not applied:\n%s", out)
	}
}

// TestRunRejectsBadInput pins the error paths: a missing -spec flag, a
// nonexistent file and an unknown algorithm override.
func TestRunRejectsBadInput(t *testing.T) {
	if _, err := testutil.CaptureStdout(t, func() error { return run(nil) }); err == nil {
		t.Error("missing -spec accepted")
	}
	if _, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"-spec", "/nonexistent/spec.json"})
	}); err == nil {
		t.Error("nonexistent spec accepted")
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"-spec", path, "-algo", "no-such-proto"})
	}); err == nil {
		t.Error("unknown algorithm override accepted")
	}
}

// zoneSpec schedules a zone outage and heal, which need a -topology.
const zoneSpec = `{
  "name": "zones",
  "n": 300,
  "rounds": 20,
  "algorithm": "push-pull",
  "seed": 5,
  "events": [
    {"type": "inject", "round": 1, "node": 0, "rumor": 0},
    {"type": "zone-outage", "round": 4, "zone": 1},
    {"type": "zone-heal", "round": 9, "zone": 1}
  ]
}`

// TestRunTopologyFlags runs a zone-outage scenario under -topology/-policy
// and pins that zone events without a topology are rejected.
func TestRunTopologyFlags(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	topoPath := filepath.Join(dir, "topo.json")
	polPath := filepath.Join(dir, "policy.json")
	for path, data := range map[string]string{
		specPath: zoneSpec,
		topoPath: `{"generator":"zones","zones":3}`,
		polPath:  `{"mode":"permissive","weights":{"same_zone":2}}`,
	} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"-spec", specPath, "-topology", topoPath, "-policy", polPath})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, marker := range []string{"event @4: zone 1 outage", "event @9: zone 1 heals", "rumor 0 (injected round 1)"} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q:\n%s", marker, out)
		}
	}

	if _, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"-spec", specPath})
	}); err == nil {
		t.Error("zone events without a topology accepted")
	}
}

// TestRunRumorSetSpec runs the committed rumor-set spec: sparse rumor IDs
// through a two-slot window under crash, join and loss, with rumor 100
// re-injected after it was retired. Every rumor must complete, and rumor
// 100's completion must fall in its second epoch.
func TestRunRumorSetSpec(t *testing.T) {
	out, err := testutil.CaptureStdout(t, func() error {
		return run([]string{"-spec", filepath.Join("..", "..", "examples", "churn", "rumorset-spec.json"), "-workers", "2"})
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, marker := range []string{
		"inject rumor 4000000000 at node 9", "inject rumor 70000 at node 4; inject rumor 100 at node 5",
		"rumor 100 (injected round 1)", "rumor 70000 (injected round 20)", "rumor 4000000000 (injected round 1)",
	} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q:\n%s", marker, out)
		}
	}
	if strings.Contains(out, "never completed") {
		t.Errorf("a rumor never completed:\n%s", out)
	}
	var done int
	for _, line := range strings.Split(out, "\n") {
		if _, round, ok := strings.Cut(line, "completed at round "); ok && strings.HasPrefix(line, "rumor 100 ") {
			if _, err := fmt.Sscan(round, &done); err != nil {
				t.Fatalf("rumor 100 line %q: %v", line, err)
			}
		}
	}
	if done <= 20 {
		t.Errorf("rumor 100 completed at round %d, before its round-20 re-injection", done)
	}
}
