package main

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/live"
	"repro/internal/membership"
	"repro/internal/phonecall"
	"repro/internal/telemetry"
)

// config holds the workload sizes. defaultConfig is what the benchmark
// measures; the tests shrink it.
type config struct {
	seed    uint64
	seconds float64

	simN  int // sim-cluster2 nodes
	lockN int // lockstep-pushpull nodes

	freeN        int // freerun-stream nodes
	streamTotal  int
	streamRate   float64
	streamWindow int

	peers        int // peer-udp nodes (at most 64: one rumor bit each)
	peerInterval time.Duration
	peerBudget   int

	probeMax int // set-up probes before each execution, at most
	minExecs int // executions per run even when --seconds is short
	inputs   int // inputs a run cycles over, derived from seed
}

// Before each execution of a repro.Run workload, set-up is probed at least
// probeMin times and until probeTime is spent, at most config.probeMax times.
const (
	probeMin  = 2
	probeTime = 50 * time.Millisecond
)

func defaultConfig() config {
	return config{
		simN:         500_000,
		lockN:        10_000,
		freeN:        1000,
		streamTotal:  4096,
		streamRate:   24,
		streamWindow: 256,
		peers:        64,
		peerInterval: 10 * time.Millisecond,
		peerBudget:   2000,
		probeMax:     200,
		minExecs:     3,
		inputs:       5,
	}
}

// freeBudget is the free-running round budget: the spread allowance the
// facade derives by default plus the frontier rounds the stream needs to
// finish injecting. It is passed explicitly so the traced run, which builds
// the runtime directly, uses the same budget.
func (c config) freeBudget() int {
	return 60 + 8*bits.Len(uint(c.freeN)) + int(float64(c.streamTotal)/c.streamRate) + 1
}

// execution is one checked workload execution.
type execution struct {
	total                    time.Duration // the whole call, set-up included
	setup                    time.Duration // measured set-up (peer-udp only; 0 = use probes)
	use                      usage         // allocations and CPU over the whole call
	peakHeap                 uint64
	nodeRounds               float64 // live nodes × rounds executed
	rumors                   float64 // rumors that reached every live node
	rounds                   int     // completion round
	msgsPerNode, bitsPerNode float64
	informed                 float64 // share of (live node, rumor) pairs informed
	fp                       fingerprint
	err                      error // a failed output check
}

// fingerprint is the deterministic part of a simulated or lock-step result:
// equal seeds must reproduce it exactly.
type fingerprint struct {
	rounds, completion int
	messages, control  int64
	bits               int64
}

func fingerprintOf(r repro.Result) fingerprint {
	return fingerprint{r.Rounds, r.CompletionRound, r.Messages, r.ControlMessages, r.Bits}
}

// workload is one named benchmark input with its checked execution paths.
type workload interface {
	// prepare builds per-run inputs (for example a reference result) outside
	// any timed region.
	prepare(ctx context.Context) error
	// execute runs one untraced execution through the public entry points
	// and checks its output.
	execute(ctx context.Context) execution
	// probeSetup times one set-up, up to the start of the first round; it
	// returns 0 when execute measures set-up itself.
	probeSetup(ctx context.Context) (time.Duration, error)
	// traced replays the same inputs through the packages' seams,
	// recording per-layer figures into l, and checks the output.
	traced(ctx context.Context, l *layers) execution
}

// workloadNames lists the workloads the program runs. BENCHMARK.json lists
// them in this order but leaves out lockstep-pushpull: on a shared VM its
// times do not hold steady from one set of runs to the next (README.md,
// Steadiness).
var workloadNames = []string{"sim-cluster2", "lockstep-pushpull", "freerun-stream", "peer-udp"}

// procs is the GOMAXPROCS a workload runs at. The repro.Run workloads run on
// one P: on a 2-vCPU VM shared with other tenants their times drift between
// busy and quiet periods much less on one P than on two (see README.md,
// Steadiness). peer-udp runs on every CPU because at its pacing
// its 64 peers need about one core of CPU, which one P would saturate.
func procs(name string) int {
	if name == "peer-udp" {
		return runtime.NumCPU()
	}
	return 1
}

func newWorkload(name string, c config) (workload, error) {
	switch name {
	case "sim-cluster2":
		return &simCluster2{c: c}, nil
	case "lockstep-pushpull":
		return &lockstepPushPull{c: c}, nil
	case "freerun-stream":
		return &freerunStream{c: c}, nil
	case "peer-udp":
		if c.peers < 2 || c.peers > 64 {
			return nil, fmt.Errorf("peer-udp needs 2..64 peers, got %d", c.peers)
		}
		return &peerUDP{c: c}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// timed runs fn as one execution: a fresh GC first, then allocation, CPU and
// peak-heap accounting around the call.
func timed(fn func(e *execution)) execution {
	runtime.GC()
	var e execution
	h := startHeapSampler()
	u0 := readUsage()
	t0 := time.Now()
	fn(&e)
	e.total = time.Since(t0)
	e.use = readUsage().since(u0)
	e.peakHeap = h.stop()
	return e
}

// fromResult fills the shared figures of a single-rumor broadcast.
func (e *execution) fromResult(r repro.Result) {
	e.nodeRounds = float64(r.Live) * float64(r.Rounds)
	e.rounds = r.CompletionRound
	e.msgsPerNode = r.MessagesPerNode
	e.bitsPerNode = float64(r.Bits) / float64(r.N)
	e.fp = fingerprintOf(r)
	if r.Live > 0 {
		e.informed = float64(r.Informed) / float64(r.Live)
	}
	if r.AllInformed && r.Informed == r.Live {
		e.rumors = 1
	}
}

// checkAllInformed fails a broadcast that left a live node uninformed.
func checkAllInformed(r repro.Result) error {
	if !r.AllInformed || r.Informed != r.Live {
		return fmt.Errorf("%d of %d live nodes informed", r.Informed, r.Live)
	}
	return nil
}

// probeRunSetup times a repro.Run set-up: under an already-cancelled context
// Run builds everything an execution needs (network, transport, node
// goroutines) and returns at the first round boundary, where the engines
// check for cancellation. The figure includes the teardown of what was built.
func probeRunSetup(ctx context.Context, n int, opts ...repro.Option) (time.Duration, error) {
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	t0 := time.Now()
	_, err := repro.Run(cctx, n, opts...)
	d := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("set-up probe: run under a cancelled context returned %v", err)
	}
	return d, nil
}

// ---- sim-cluster2 ---------------------------------------------------------

type simCluster2 struct {
	c     config
	first *fingerprint
}

func (w *simCluster2) opts() []repro.Option {
	return []repro.Option{
		repro.OnSimulator(),
		repro.WithAlgorithm(repro.AlgoCluster2),
		repro.WithSeed(w.c.seed),
		repro.WithWorkers(runtime.GOMAXPROCS(0)),
	}
}

func (w *simCluster2) prepare(context.Context) error { return nil }

func (w *simCluster2) probeSetup(ctx context.Context) (time.Duration, error) {
	return probeRunSetup(ctx, w.c.simN, w.opts()...)
}

func (w *simCluster2) execute(ctx context.Context) execution {
	return timed(func(e *execution) {
		rep, err := repro.Run(ctx, w.c.simN, w.opts()...)
		if err != nil {
			e.err = err
			return
		}
		e.fromResult(rep.Result)
		e.err = w.check(rep.Result)
	})
}

// check requires every node informed and the deterministic costs equal to
// the first execution of the run.
func (w *simCluster2) check(r repro.Result) error {
	if err := checkAllInformed(r); err != nil {
		return err
	}
	fp := fingerprintOf(r)
	if w.first == nil {
		w.first = &fp
	} else if fp != *w.first {
		return fmt.Errorf("repetition of seed %d differs: %+v, first %+v", w.c.seed, fp, *w.first)
	}
	return nil
}

// ---- lockstep-pushpull ----------------------------------------------------

type lockstepPushPull struct {
	c   config
	ref repro.Result // the simulator's result for the same seed
}

func (w *lockstepPushPull) opts(engine repro.Option) []repro.Option {
	return []repro.Option{engine, repro.WithAlgorithm(repro.AlgoPushPull), repro.WithSeed(w.c.seed)}
}

func (w *lockstepPushPull) prepare(ctx context.Context) error {
	rep, err := repro.Run(ctx, w.c.lockN, w.opts(repro.OnSimulator())...)
	if err != nil {
		return fmt.Errorf("simulator reference: %w", err)
	}
	w.ref = rep.Result
	return nil
}

func (w *lockstepPushPull) probeSetup(ctx context.Context) (time.Duration, error) {
	return probeRunSetup(ctx, w.c.lockN, w.opts(repro.OnLockStep(repro.TransportChannel))...)
}

func (w *lockstepPushPull) execute(ctx context.Context) execution {
	return timed(func(e *execution) {
		rep, err := repro.Run(ctx, w.c.lockN, w.opts(repro.OnLockStep(repro.TransportChannel))...)
		if err != nil {
			e.err = err
			return
		}
		e.fromResult(rep.Result)
		e.err = checkConformance(rep.Result, w.ref)
	})
}

// checkConformance is the lock-step guarantee: the result is bit-identical
// to the simulator's for the same seed.
func checkConformance(got, sim repro.Result) error {
	if err := checkAllInformed(got); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, sim) {
		return fmt.Errorf("lock-step result differs from the simulator's: %+v vs %+v", fingerprintOf(got), fingerprintOf(sim))
	}
	return nil
}

// ---- freerun-stream -------------------------------------------------------

type freerunStream struct{ c config }

func (w *freerunStream) opts() []repro.Option {
	return []repro.Option{
		repro.OnFreeRunning(0, w.c.freeBudget()),
		repro.WithAlgorithm(repro.AlgoPushPull),
		repro.WithSeed(w.c.seed),
		repro.WithRumorStream(w.c.streamRate, w.c.streamTotal, w.c.streamWindow),
	}
}

func (w *freerunStream) prepare(context.Context) error { return nil }

func (w *freerunStream) probeSetup(ctx context.Context) (time.Duration, error) {
	return probeRunSetup(ctx, w.c.freeN, w.opts()...)
}

func (w *freerunStream) execute(ctx context.Context) execution {
	return timed(func(e *execution) {
		rep, err := repro.Run(ctx, w.c.freeN, w.opts()...)
		if err != nil {
			e.err = err
			return
		}
		e.fromStream(streamOutcome{
			live: rep.Live, n: rep.N, maxRound: rep.Rounds, completion: rep.CompletionRound,
			msgs: rep.Messages + rep.ControlMessages, bits: rep.Bits,
			converged: rep.RumorsConverged, active: rep.RumorsActive, drops: rep.Drops,
			sendFailures: rep.SendFailures, lost: rep.LostInjects,
		}, w.c.streamTotal)
	})
}

// streamOutcome is the part of a free-running stream report the benchmark
// checks and costs; the facade Report and live.Report both map onto it.
type streamOutcome struct {
	live, n, maxRound, completion int
	msgs, bits                    int64
	converged                     int64
	active                        int
	drops, sendFailures, lost     int64
}

// fromStream fills and checks a stream execution: every rumor converged,
// none left active, nothing dropped.
func (e *execution) fromStream(o streamOutcome, total int) {
	e.nodeRounds = float64(o.live) * float64(o.maxRound)
	e.rounds = o.completion
	e.rumors = float64(o.converged)
	e.msgsPerNode = float64(o.msgs) / float64(o.n)
	e.bitsPerNode = float64(o.bits) / float64(o.n)
	e.informed = float64(o.converged) / float64(total)
	switch {
	case o.converged != int64(total) || o.active != 0:
		e.err = fmt.Errorf("stream converged %d of %d rumors, %d still active", o.converged, total, o.active)
	case o.drops != 0 || o.sendFailures != 0 || o.lost != 0:
		e.err = fmt.Errorf("stream dropped frames or rumors: drops %d, send failures %d, lost injects %d",
			o.drops, o.sendFailures, o.lost)
	case o.completion == 0:
		e.err = errors.New("stream never reached its completion frontier")
	}
}

// ---- peer-udp -------------------------------------------------------------

type peerUDP struct{ c config }

func (w *peerUDP) prepare(context.Context) error { return nil }

func (w *peerUDP) probeSetup(context.Context) (time.Duration, error) { return 0, nil }

func (w *peerUDP) execute(ctx context.Context) execution {
	return timed(func(e *execution) { w.run(ctx, e, nil) })
}

// expect is the deployment's rumor mask: one rumor per peer.
func (w *peerUDP) expect() uint64 {
	if w.c.peers == 64 {
		return ^uint64(0)
	}
	return 1<<w.c.peers - 1
}

// peerTrace receives the traced run's membership figures; nil on the
// untraced path.
type peerTrace struct {
	reg          *telemetry.Registry
	bootstrapMS  []float64
	contactsBoot []float64
	contactsEnd  []float64
	pingUS       []float64
	rt           *runtimeWindow

	misses, sends, sendFails int64
}

// run deploys the peers in this process — one PeerTransport (loopback UDP
// socket, routing table) and one PeerNode each, all bootstrapping off peer
// 0 — injects one rumor per peer and runs every node to convergence plus
// linger.
func (w *peerUDP) run(ctx context.Context, e *execution, tr *peerTrace) {
	c := w.c
	start := time.Now()
	net, err := phonecall.New(phonecall.Config{N: c.peers, Seed: c.seed, Workers: 1})
	if err != nil {
		e.err = err
		return
	}
	ids := live.PeerIDs(net)
	mcfg := membership.Config{Bind: "127.0.0.1:0", RPCTimeout: 200 * time.Millisecond}
	var reg *telemetry.Registry
	if tr != nil {
		reg = tr.reg
		mcfg.Telemetry = reg
	}
	trs := make([]*live.PeerTransport, 0, c.peers)
	defer func() {
		for _, t := range trs {
			t.Close()
		}
	}()
	for i := 0; i < c.peers; i++ {
		t, err := live.NewPeerTransport(live.PeerTransportConfig{N: c.peers, Self: i, IDs: ids, Membership: mcfg})
		if err != nil {
			e.err = fmt.Errorf("peer %d transport: %w", i, err)
			return
		}
		trs = append(trs, t)
	}
	seedAddr := trs[0].Membership().Self().Addr
	bctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for i := 1; i < c.peers; i++ {
		b0 := time.Now()
		if err := trs[i].Membership().Bootstrap(bctx, seedAddr); err != nil {
			e.err = fmt.Errorf("peer %d bootstrap: %w", i, err)
			return
		}
		if tr != nil {
			tr.bootstrapMS = append(tr.bootstrapMS, ms(time.Since(b0)))
		}
	}
	if tr != nil {
		for _, t := range trs {
			tr.contactsBoot = append(tr.contactsBoot, float64(t.Membership().Table().Len()))
		}
	}
	nodes := make([]*live.PeerNode, c.peers)
	for i := range nodes {
		nodes[i], err = live.NewPeerNode(live.PeerConfig{
			N: c.peers, Index: i, Seed: c.seed,
			Rounds:    c.peerBudget,
			Interval:  c.peerInterval,
			Inject:    1 << i,
			Expect:    w.expect(),
			Transport: trs[i],
			Telemetry: reg,
		})
		if err != nil {
			e.err = fmt.Errorf("peer %d: %w", i, err)
			return
		}
	}
	e.setup = time.Since(start)

	reports := make([]live.PeerReport, c.peers)
	errs := make([]error, c.peers)
	var wg sync.WaitGroup
	for i, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = nd.Run(ctx)
		}()
	}
	if tr != nil {
		waitSampling(&wg, tr.rt)
	} else {
		wg.Wait()
	}
	if tr != nil {
		for i, t := range trs {
			tr.contactsEnd = append(tr.contactsEnd, float64(t.Membership().Table().Len()))
			p0 := time.Now()
			if _, err := t.Membership().Ping(trs[(i+1)%c.peers].Membership().Self().Addr); err == nil {
				tr.pingUS = append(tr.pingUS, float64(time.Since(p0).Nanoseconds())/1e3)
			}
		}
	}
	w.account(e, reports, errs)
	if tr != nil {
		for _, r := range reports {
			tr.misses += r.SendMisses
			tr.sends += r.Messages + r.ControlMessages
			tr.sendFails += r.SendFailures
		}
	}
}

// waitSampling waits for wg while folding the goroutine count into the
// runtime window every millisecond.
func waitSampling(wg *sync.WaitGroup, rt *runtimeWindow) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		rt.sampleGoroutines()
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
}

// account fills the execution's costs from the peer reports and checks that
// every peer converged holding every rumor.
func (w *peerUDP) account(e *execution, reports []live.PeerReport, errs []error) {
	var msgs, bitsSent int64
	informedPairs := 0
	for i, r := range reports {
		msgs += r.Messages + r.ControlMessages
		bitsSent += r.Bits
		e.nodeRounds += float64(r.RoundsRun)
		e.rounds = max(e.rounds, r.InformedAt)
		informedPairs += bits.OnesCount64(r.Held & w.expect())
		if e.err == nil {
			switch {
			case errs[i] != nil:
				e.err = fmt.Errorf("peer %d: %w", i, errs[i])
			case !r.Converged || r.Held != w.expect():
				e.err = fmt.Errorf("peer %d holds %#x of %#x after %d rounds", i, r.Held, w.expect(), r.RoundsRun)
			}
		}
	}
	e.msgsPerNode = float64(msgs) / float64(w.c.peers)
	e.bitsPerNode = float64(bitsSent) / float64(w.c.peers)
	e.informed = float64(informedPairs) / float64(w.c.peers*w.c.peers)
	if e.err == nil {
		e.rumors = float64(w.c.peers)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
