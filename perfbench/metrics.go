package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is the catalogue of user-visible metrics, printed by every
// untraced run (--trace 0). BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"node_rounds_per_s", "1/s"},
	{"rumors_per_s", "1/s"},
	{"rounds", "count"},
	{"msgs_per_node", "count"},
	{"bits_per_node", "bits"},
	{"allocs_per_node_round", "count"},
	{"alloc_bytes_per_node_round", "B"},
	{"cpu_us_per_node_round", "us"},
	{"peak_heap_mb", "MB"},
	{"informed_frac", "frac"},
}

// corePhases are Cluster2's phases in execution order (trace.Result.Phases).
var corePhases = []string{
	"GrowInitialClusters", "SquareClusters", "MergeAllClusters",
	"BoundedClusterPush", "UnclusteredNodesPull", "ClusterShare",
}

// perLayer is the catalogue of single-layer metrics, printed by every traced
// run (--trace 1). A layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	var d []metricDef
	one := func(name, unit string) { d = append(d, metricDef{name, unit}) }
	dist := func(name, unit string) {
		one(name+".p50", unit)
		one(name+".tail", unit)
		one(name+".tail_n", "count")
	}
	dist("phonecall.round_ms", "ms")
	one("phonecall.calls_per_node_round", "count")
	one("phonecall.max_comms", "count")
	one("phonecall.contact_ns", "ns")
	for _, ph := range corePhases {
		one("core."+ph+".rounds", "count")
		one("core."+ph+".wall_ms", "ms")
		one("core."+ph+".bits", "bits")
	}
	dist("live.lockstep.round_ms", "ms")
	one("live.lockstep.self_frac", "frac")
	one("live.transport.frames_per_node_round", "count")
	dist("live.transport.send_ns", "ns")
	one("live.transport.frame_bytes.mean", "B")
	one("live.transport.send_busy_frac", "frac")
	dist("live.mailbox.backlog", "frames")
	dist("live.freerun.frontier_ms", "ms")
	one("live.freerun.skew.mean", "rounds")
	one("live.freerun.skew.max", "rounds")
	one("rumorset.stall_frac", "frac")
	one("rumorset.active.max", "count")
	one("rumorset.expired", "count")
	one("rumorset.markids_ns", "ns")
	one("rumorset.scan_converged_ns", "ns")
	one("rumorset.summary_encode_ns", "ns")
	one("rumorset.summary_decode_ns", "ns")
	dist("membership.bootstrap_ms", "ms")
	dist("membership.ping_us", "us")
	one("membership.table_contacts.bootstrap.min", "count")
	one("membership.table_contacts.bootstrap.mean", "count")
	one("membership.table_contacts.end.min", "count")
	one("membership.table_contacts.end.mean", "count")
	one("membership.lookups", "count")
	one("membership.rpc_timeouts", "count")
	one("live.peer.send_miss_frac", "frac")
	one("live.peer.send_failures", "count")
	one("telemetry.overhead_frac", "frac")
	one("go.gc_cycles_per_s", "1/s")
	one("go.gc_pause_ms.total", "ms")
	dist("go.sched_latency_us", "us")
	one("go.goroutines.max", "count")
	return d
}()

// values holds measured metric values by name.
type values map[string]float64

// setDist stores a distribution's median, tail and sample count under
// name.p50, name.tail and name.tail_n.
func (v values) setDist(name string, samples []float64) {
	p50, tail := medianTail(samples)
	v[name+".p50"] = p50
	v[name+".tail"] = tail
	v[name+".tail_n"] = float64(len(samples))
}

// tailLadder holds the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// medianTail returns the median of samples and their tail: the highest
// percentile of tailLadder with at least ten samples beyond it, or the
// maximum when there are too few samples for any.
func medianTail(samples []float64) (p50, tail float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p50 = quantileSorted(s, 0.5)
	tail = s[len(s)-1]
	for _, p := range tailLadder {
		if hasTenBeyond(float64(len(s)), p) {
			tail = quantileSorted(s, p)
			break
		}
	}
	return p50, tail
}

// hasTenBeyond reports whether n samples leave at least ten beyond the
// p-quantile (with slack for 1-p not being exact in floating point).
func hasTenBeyond(n, p float64) bool { return n*(1-p) >= 10-1e-9 }

// quantileSorted interpolates the q-quantile of ascending samples.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the median of samples (0 when empty).
func median(samples []float64) float64 {
	p50, _ := medianTail(samples)
	return p50
}

// mean returns the arithmetic mean of samples (0 when empty).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range samples {
		sum += x
	}
	return sum / float64(len(samples))
}

// Runtime metric names read through runtime/metrics.
const (
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmHeapObjects  = "/memory/classes/heap/objects:bytes"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmGCPauses     = "/sched/pauses/total/gc:seconds"
	rmSchedLat     = "/sched/latencies:seconds"
)

// usage is a process resource reading: allocation totals from runtime/metrics
// and user plus system CPU time from getrusage.
type usage struct {
	allocs, allocBytes uint64
	cpu                time.Duration
}

func readUsage() usage {
	s := []metrics.Sample{{Name: rmAllocObjects}, {Name: rmAllocBytes}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{allocs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), cpu: cpu}
}

func (u usage) since(start usage) usage {
	return usage{
		allocs:     u.allocs - start.allocs,
		allocBytes: u.allocBytes - start.allocBytes,
		cpu:        u.cpu - start.cpu,
	}
}

// heapSampler records the peak of live-plus-unswept heap object bytes while
// an execution runs, polling runtime/metrics from one goroutine that stop
// ends and waits for.
type heapSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: rmHeapObjects}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.done.Wait()
	return h.peak
}

// runtimeWindow brackets a traced run's Go runtime figures: GC cycles and
// pauses, scheduling latency and the goroutine high-water mark.
type runtimeWindow struct {
	start         []metrics.Sample
	wall          time.Duration
	gcCycles      uint64
	pauses, sched *metrics.Float64Histogram
	maxGoroutines uint64
}

func runtimeSamples() []metrics.Sample {
	s := []metrics.Sample{{Name: rmGCCycles}, {Name: rmGCPauses}, {Name: rmSchedLat}}
	metrics.Read(s)
	return s
}

// sampleGoroutines folds the current goroutine count into the high-water mark.
func (w *runtimeWindow) sampleGoroutines() {
	w.maxGoroutines = max(w.maxGoroutines, uint64(runtime.NumGoroutine()))
}

// close ends the window, accumulating its deltas.
func (w *runtimeWindow) close(wall time.Duration) {
	end := runtimeSamples()
	w.wall += wall
	w.gcCycles += end[0].Value.Uint64() - w.start[0].Value.Uint64()
	w.pauses = addHist(w.pauses, histDelta(end[1].Value.Float64Histogram(), w.start[1].Value.Float64Histogram()))
	w.sched = addHist(w.sched, histDelta(end[2].Value.Float64Histogram(), w.start[2].Value.Float64Histogram()))
}

// open starts a window; each close adds the window's deltas to the totals.
func (w *runtimeWindow) open() { w.start = runtimeSamples() }

// histDelta returns end − start for two readings of one cumulative histogram.
func histDelta(end, start *metrics.Float64Histogram) *metrics.Float64Histogram {
	d := &metrics.Float64Histogram{
		Counts:  make([]uint64, len(end.Counts)),
		Buckets: end.Buckets,
	}
	for i := range end.Counts {
		d.Counts[i] = end.Counts[i] - start.Counts[i]
	}
	return d
}

func addHist(acc, h *metrics.Float64Histogram) *metrics.Float64Histogram {
	if acc == nil {
		return h
	}
	for i := range h.Counts {
		acc.Counts[i] += h.Counts[i]
	}
	return acc
}

// bucketValue is a runtime histogram bucket's representative value: its
// midpoint, or its finite edge for an open-ended bucket.
func bucketValue(h *metrics.Float64Histogram, i int) float64 {
	lo, hi := h.Buckets[i], h.Buckets[i+1]
	switch {
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}

// histDist stores a runtime histogram's median, tail (by the tailLadder
// rule) and event count, each bucket read at its representative value.
func (v values) histDist(name string, h *metrics.Float64Histogram, unit float64) {
	total := uint64(0)
	if h != nil {
		for _, c := range h.Counts {
			total += c
		}
	}
	v[name+".tail_n"] = float64(total)
	if total == 0 {
		v[name+".p50"], v[name+".tail"] = 0, 0
		return
	}
	at := func(q float64) float64 {
		rank := uint64(math.Ceil(q * float64(total)))
		seen := uint64(0)
		for i, c := range h.Counts {
			seen += c
			if seen >= max(rank, 1) {
				return bucketValue(h, i) * unit
			}
		}
		return bucketValue(h, len(h.Counts)-1) * unit
	}
	v[name+".p50"] = at(0.5)
	v[name+".tail"] = at(1)
	for _, p := range tailLadder {
		if hasTenBeyond(float64(total), p) {
			v[name+".tail"] = at(p)
			break
		}
	}
}

// report fills the go.* per-layer metrics.
func (w *runtimeWindow) report(v values) {
	secs := w.wall.Seconds()
	if secs > 0 {
		v["go.gc_cycles_per_s"] = float64(w.gcCycles) / secs
	}
	total := 0.0
	if h := w.pauses; h != nil {
		for i, c := range h.Counts {
			total += float64(c) * bucketValue(h, i) * 1e3
		}
	}
	v["go.gc_pause_ms.total"] = total
	v.histDist("go.sched_latency_us", w.sched, 1e6)
	v["go.goroutines.max"] = float64(w.maxGoroutines)
}
