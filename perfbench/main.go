// Command perfbench is the repository's benchmark: it runs one of four
// checked gossip workloads for a fixed time and prints the end-to-end costs
// (--trace 0) or the per-layer figures of a traced replay (--trace 1). The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 1.03, "unit": "s"}, ...}}
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload sim-cluster2 --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runDeadline keeps a run inside the three minutes a run may take: an
// execution still going when it expires is cancelled and fails its check.
const runDeadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run (one of %v)", workloadNames))
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "how long to keep repeating executions")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	c := defaultConfig()
	c.seed, c.seconds = *seed, *seconds
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := bench(ctx, *name, c, *traceMode == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d executions failed their output check\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// result is the benchmark's output record.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs     []metricDef
	failures []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one "name value unit" line per metric, then the JSON record
// as the last line.
func (r *result) print(w io.Writer) {
	for _, f := range r.failures {
		fmt.Fprintln(w, "check failed:", f)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	line, _ := json.Marshal(r) // plain structs and finite floats cannot fail
	fmt.Fprintln(w, string(line))
}

// bench runs the named workload for c.seconds and returns its metrics.
// Errors are reserved for runs that could not start; a failed output check
// is reported through result.Correct.
func bench(ctx context.Context, name string, c config, traced bool, stderr io.Writer) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs(name)))
	r := &result{Metrics: map[string]metricValue{}}
	// A run cycles its executions over c.inputs inputs derived from the
	// seed, so its medians do not hang on the costs of a single input.
	ws := make([]workload, c.inputs)
	start := time.Now()
	for k := range ws {
		ck := c
		ck.seed = inputSeed(c.seed, c.inputs, k)
		w, err := newWorkload(name, ck)
		if err != nil {
			return nil, err
		}
		if err := w.prepare(ctx); err != nil {
			return nil, err
		}
		ws[k] = w
	}
	var execs []execution
	record := func(e execution) execution {
		fmt.Fprintf(stderr, "execution %d: %.4fs, %.0f node-rounds, %.4fs cpu, err %v\n",
			r.Attempted, e.total.Seconds(), e.nodeRounds, e.use.cpu.Seconds(), e.err)
		r.Attempted++
		if e.err != nil {
			r.Failed++
			r.failures = append(r.failures, e.err.Error())
		}
		execs = append(execs, e)
		return e
	}
	more := func() bool {
		return len(execs) < c.minExecs || time.Since(start).Seconds() < c.seconds
	}
	if traced {
		l := newLayers()
		for i := 0; more(); i++ {
			w := ws[i%len(ws)]
			u := record(w.execute(ctx))
			t := w.traced(ctx, l)
			if t.err == nil && u.err == nil && deterministic(name) && t.fp != u.fp {
				t.err = fmt.Errorf("traced costs %+v differ from untraced %+v", t.fp, u.fp)
			}
			record(t)
			if u.err == nil && t.err == nil {
				l.untracedWall = append(l.untracedWall, u.total.Seconds())
				l.tracedWall = append(l.tracedWall, t.total.Seconds())
			}
		}
		r.fill(perLayer, l.values())
		return r, nil
	}
	// Set-up is probed before every execution rather than once up front, so
	// the probes sample the same stretch of the run as the executions whose
	// time they are subtracted from.
	var setups []float64
	probe := func(w workload) error {
		var spent time.Duration
		for k := 0; k < c.probeMax && (k < probeMin || spent < probeTime); k++ {
			runtime.GC()
			d, err := w.probeSetup(ctx)
			if err != nil || d == 0 {
				return err
			}
			spent += d
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	for i := 0; more(); i++ {
		w := ws[i%len(ws)]
		if err := probe(w); err != nil {
			return nil, err
		}
		record(w.execute(ctx))
	}
	fmt.Fprintf(stderr, "GOMAXPROCS %d, %d set-up probes, median %.6fs\n",
		runtime.GOMAXPROCS(0), len(setups), median(setups))
	r.fill(endToEnd, endToEndValues(execs, setups))
	return r, nil
}

// inputSeed is the seed of a run's k-th input: distinct for every (seed, k)
// with k < inputs.
func inputSeed(seed uint64, inputs, k int) uint64 {
	return seed*uint64(inputs) + uint64(k)
}

// deterministic reports whether a workload's costs are a pure function of
// its seed, so a traced replay must reproduce them exactly.
func deterministic(name string) bool {
	return name == "sim-cluster2" || name == "lockstep-pushpull"
}

func (r *result) fill(defs []metricDef, v values) {
	r.defs = defs
	r.Correct = r.Failed == 0
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
}

// endToEndValues reduces the run's executions to the end-to-end metrics:
// medians over the executions that passed their check. Set-up is the median
// of the probes, or of the executions' own set-up where they measure it.
// informed_frac averages over every execution, a failed one counting as
// wholly uninformed.
func endToEndValues(execs []execution, setups []float64) values {
	var ok []execution
	informed := 0.0
	for _, e := range execs {
		if e.err == nil {
			ok = append(ok, e)
			informed += e.informed
		}
	}
	v := values{"informed_frac": informed / float64(max(len(execs), 1))}
	if len(ok) == 0 {
		return v
	}
	perExec := func(f func(e execution) float64) float64 {
		xs := make([]float64, 0, len(ok))
		for _, e := range ok {
			xs = append(xs, f(e))
		}
		return median(xs)
	}
	setup := median(setups)
	if ok[0].setup > 0 {
		setup = perExec(func(e execution) float64 { return e.setup.Seconds() })
	}
	wall := func(e execution) float64 {
		if e.setup > 0 {
			return (e.total - e.setup).Seconds()
		}
		return e.total.Seconds() - setup
	}
	v["setup_s"] = setup
	v["wall_s"] = perExec(wall)
	v["node_rounds_per_s"] = perExec(func(e execution) float64 { return e.nodeRounds / wall(e) })
	v["rumors_per_s"] = perExec(func(e execution) float64 { return e.rumors / wall(e) })
	v["rounds"] = perExec(func(e execution) float64 { return float64(e.rounds) })
	v["msgs_per_node"] = perExec(func(e execution) float64 { return e.msgsPerNode })
	v["bits_per_node"] = perExec(func(e execution) float64 { return e.bitsPerNode })
	v["allocs_per_node_round"] = perExec(func(e execution) float64 { return float64(e.use.allocs) / e.nodeRounds })
	v["alloc_bytes_per_node_round"] = perExec(func(e execution) float64 { return float64(e.use.allocBytes) / e.nodeRounds })
	v["cpu_us_per_node_round"] = perExec(func(e execution) float64 { return float64(e.use.cpu.Microseconds()) / e.nodeRounds })
	v["peak_heap_mb"] = perExec(func(e execution) float64 { return float64(e.peakHeap) / 1e6 })
	return v
}
