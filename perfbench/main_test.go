package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/live"
)

// tinyConfig shrinks every workload so a whole run takes well under a
// second; seconds is tiny, so each run makes minExecs executions, one per
// input.
func tinyConfig() config {
	c := defaultConfig()
	c.seed = 7
	c.seconds = 0.001
	c.simN = 2000
	c.lockN = 300
	c.freeN = 64
	c.streamTotal = 96
	c.streamRate = 8
	c.streamWindow = 16
	c.peers = 8
	c.peerInterval = 2 * time.Millisecond
	c.peerBudget = 1000
	c.probeMax = 2
	c.minExecs = 2
	c.inputs = 2
	return c
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and traced,
// and checks the result record: all checks pass and exactly the catalogue's
// metrics are emitted, each with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := bench(context.Background(), name, tinyConfig(), traced, &bytes.Buffer{})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct %v, %d of %d failed: %v",
					name, traced, res.Correct, res.Failed, res.Attempted, res.failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, catalogue has %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.Name)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", name, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestTracedLayersPerWorkload checks that each workload's traced run fills
// the layers it exercises.
func TestTracedLayersPerWorkload(t *testing.T) {
	want := map[string][]string{
		"sim-cluster2":      {"phonecall.round_ms.p50", "phonecall.contact_ns", "core.BoundedClusterPush.rounds", "core.ClusterShare.wall_ms"},
		"lockstep-pushpull": {"live.lockstep.round_ms.p50", "live.lockstep.self_frac", "live.transport.frames_per_node_round", "live.transport.send_ns.p50"},
		"freerun-stream":    {"live.freerun.frontier_ms.p50", "rumorset.active.max", "rumorset.expired", "rumorset.markids_ns", "live.transport.frame_bytes.mean"},
		"peer-udp":          {"membership.bootstrap_ms.p50", "membership.ping_us.p50", "membership.table_contacts.end.mean", "membership.lookups"},
	}
	for name, metrics := range want {
		res, err := bench(context.Background(), name, tinyConfig(), true, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range append(metrics, "go.goroutines.max") {
			if res.Metrics[m].Value <= 0 {
				t.Errorf("%s: traced metric %s = %v, want > 0", name, m, res.Metrics[m].Value)
			}
		}
	}
}

// specifiedMetrics are the metric names the benchmark was specified with. The
// failure share is reported as its complement, informed_frac, because an
// end-to-end metric must never read 0.
var specifiedMetrics = []string{
	"setup_s", "wall_s", "node_rounds_per_s", "rumors_per_s", "rounds", "msgs_per_node",
	"bits_per_node", "allocs_per_node_round", "alloc_bytes_per_node_round",
	"cpu_us_per_node_round", "peak_heap_mb", "informed_frac",
	"phonecall.round_ms.p50", "phonecall.round_ms.tail", "phonecall.calls_per_node_round",
	"phonecall.max_comms", "phonecall.contact_ns",
	"live.lockstep.round_ms.p50", "live.lockstep.round_ms.tail", "live.lockstep.self_frac",
	"live.transport.frames_per_node_round", "live.transport.send_ns.p50", "live.transport.send_ns.tail",
	"live.transport.frame_bytes.mean", "live.transport.send_busy_frac",
	"live.mailbox.backlog.p50", "live.mailbox.backlog.tail",
	"live.freerun.frontier_ms.p50", "live.freerun.frontier_ms.tail",
	"live.freerun.skew.mean", "live.freerun.skew.max",
	"rumorset.stall_frac", "rumorset.active.max", "rumorset.expired", "rumorset.markids_ns",
	"rumorset.scan_converged_ns", "rumorset.summary_encode_ns", "rumorset.summary_decode_ns",
	"membership.bootstrap_ms.p50", "membership.bootstrap_ms.tail",
	"membership.ping_us.p50", "membership.ping_us.tail",
	"membership.table_contacts.bootstrap.min", "membership.table_contacts.bootstrap.mean",
	"membership.table_contacts.end.min", "membership.table_contacts.end.mean",
	"membership.lookups", "membership.rpc_timeouts",
	"live.peer.send_miss_frac", "live.peer.send_failures", "telemetry.overhead_frac",
	"go.gc_cycles_per_s", "go.gc_pause_ms.total", "go.sched_latency_us.p50",
	"go.sched_latency_us.tail", "go.goroutines.max",
}

// TestCatalogueCoversSpecAndBenchmarkJSON checks that every specified metric
// is in a catalogue with a unit, and that BENCHMARK.json lists exactly the
// catalogues and every workload but lockstep-pushpull.
func TestCatalogueCoversSpecAndBenchmarkJSON(t *testing.T) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, dup := units[d.Name]; dup {
			t.Errorf("metric %s listed twice", d.Name)
		}
		units[d.Name] = d.Unit
	}
	names := append([]string(nil), specifiedMetrics...)
	for _, ph := range corePhases {
		names = append(names, "core."+ph+".rounds", "core."+ph+".wall_ms", "core."+ph+".bits")
	}
	for _, m := range names {
		if units[m] == "" {
			t.Errorf("metric %s has no catalogue entry with a unit", m)
		}
	}
	for name := range units {
		if strings.HasSuffix(name, ".tail") && units[name+"_n"] != "count" {
			t.Errorf("tail %s has no sample count", name)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json %s: %d metrics, catalogue has %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s/%s, catalogue %s/%s",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var want []string
	for _, name := range workloadNames {
		if name != "lockstep-pushpull" {
			want = append(want, name)
		}
	}
	if len(bj.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(bj.Workloads), len(want))
	}
	for i, w := range bj.Workloads {
		if w.Name != want[i] {
			t.Errorf("BENCHMARK.json workload %d = %s, want %s", i, w.Name, want[i])
		}
	}
}

// TestConformanceCheckFires compares a lock-step result with the simulator
// result of a different seed: the check must fail, and pass on the same seed.
func TestConformanceCheckFires(t *testing.T) {
	ctx := context.Background()
	run := func(engine repro.Option, seed uint64) repro.Result {
		rep, err := repro.Run(ctx, 300, engine, repro.WithAlgorithm(repro.AlgoPushPull), repro.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Result
	}
	ls := run(repro.OnLockStep(repro.TransportChannel), 1)
	if err := checkConformance(ls, run(repro.OnSimulator(), 1)); err != nil {
		t.Fatalf("same seed: %v", err)
	}
	if err := checkConformance(ls, run(repro.OnSimulator(), 2)); err == nil {
		t.Fatal("lock-step result of seed 1 passed against the simulator run of seed 2")
	}
}

// TestChecksFireOnWrongOutputs feeds each workload's check a wrong output.
func TestChecksFireOnWrongOutputs(t *testing.T) {
	good := repro.Result{N: 10, Live: 10, Informed: 10, AllInformed: true, Rounds: 5, Bits: 100}
	w := &simCluster2{c: tinyConfig()}
	if err := w.check(good); err != nil {
		t.Fatal(err)
	}
	again := good
	again.Bits++
	if w.check(again) == nil {
		t.Error("a repetition with different bits passed the determinism check")
	}
	partial := good
	partial.Informed, partial.AllInformed = 9, false
	if checkAllInformed(partial) == nil {
		t.Error("a broadcast leaving a node uninformed passed")
	}

	full := streamOutcome{live: 8, n: 8, maxRound: 30, completion: 25, converged: 16}
	for name, o := range map[string]streamOutcome{
		"unconverged rumor": {live: 8, n: 8, maxRound: 30, completion: 25, converged: 15, active: 1},
		"dropped frame":     {live: 8, n: 8, maxRound: 30, completion: 25, converged: 16, drops: 1},
		"lost inject":       {live: 8, n: 8, maxRound: 30, completion: 25, converged: 16, lost: 1},
		"no completion":     {live: 8, n: 8, maxRound: 30, converged: 16},
	} {
		var e execution
		if e.fromStream(o, 16); e.err == nil {
			t.Errorf("stream check passed with a %s", name)
		}
	}
	var e execution
	if e.fromStream(full, 16); e.err != nil {
		t.Errorf("a complete stream failed: %v", e.err)
	}

	p := &peerUDP{c: tinyConfig()}
	reports := make([]live.PeerReport, p.c.peers)
	for i := range reports {
		reports[i] = live.PeerReport{Converged: true, Held: p.expect(), InformedAt: 3, RoundsRun: 9}
	}
	e = execution{}
	p.account(&e, reports, make([]error, p.c.peers))
	if e.err != nil || e.informed != 1 {
		t.Fatalf("converged peers failed: %v (informed %v)", e.err, e.informed)
	}
	reports[3].Held &^= 1 << 5
	e = execution{}
	p.account(&e, reports, make([]error, p.c.peers))
	if e.err == nil || e.informed >= 1 {
		t.Errorf("a peer missing a rumor passed (informed %v)", e.informed)
	}
}

// TestFailedExecutionsCountAsUninformed checks that a failed execution is
// counted as wholly uninformed and never enters the timing medians.
func TestFailedExecutionsCountAsUninformed(t *testing.T) {
	ok := execution{total: 2 * time.Second, nodeRounds: 100, rumors: 1, informed: 1, rounds: 4}
	bad := execution{total: time.Millisecond, nodeRounds: 100, rumors: 1, informed: 1, err: os.ErrClosed}
	v := endToEndValues([]execution{ok, bad}, []float64{0.5})
	if v["informed_frac"] != 0.5 {
		t.Errorf("informed_frac = %v, want 0.5", v["informed_frac"])
	}
	if v["wall_s"] != 1.5 {
		t.Errorf("wall_s = %v, want 1.5 (the failed execution's time must not count)", v["wall_s"])
	}
}

func TestMedianTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	p50, tail := medianTail(xs)
	if p50 != 50.5 || tail < 90 || tail > 91 {
		t.Errorf("100 samples: p50 %v tail %v, want 50.5 and p90", p50, tail)
	}
	if _, tail := medianTail(xs[:10]); tail != 10 {
		t.Errorf("10 samples: tail %v, want the maximum", tail)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "sim-cluster2", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--workload", "sim-cluster2", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestInputSeedsDistinct checks that the inputs of runs with different seeds
// never coincide, so a claim can be re-checked on inputs not used before.
func TestInputSeedsDistinct(t *testing.T) {
	const inputs = 5
	seen := map[uint64]string{}
	for seed := uint64(0); seed < 200; seed++ {
		for k := 0; k < inputs; k++ {
			s := inputSeed(seed, inputs, k)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed %d input %d repeats %s", seed, k, prev)
			}
			seen[s] = fmt.Sprintf("seed %d input %d", seed, k)
		}
	}
}
