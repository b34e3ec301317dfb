package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/live"
	"repro/internal/phonecall"
	"repro/internal/rumorset"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The traced run replays a workload's inputs through seams the packages open
// to outside callers — a RoundObserver, a wrapping RoundExecutor, a wrapping
// Transport, the free-running OnFrontier hook, the program's telemetry
// registry and runtime/metrics — and records spans and counts around each
// layer. Nothing here changes what the program computes: the fidelity check
// compares the traced costs with the untraced ones.

// layers accumulates per-layer figures over a run's traced executions.
type layers struct {
	rt *runtimeWindow

	// phonecall (observer spans and counts)
	roundMS          []float64
	calls, callSlots int64
	maxComms         int
	contactNS        float64

	// core (per-phase costs summed over executions)
	phaseRounds, phaseBits, phaseMS map[string]float64
	phaseRuns                       int

	// live lock-step executor spans
	execMS    []float64
	execTotal time.Duration

	// live transport
	tt         *tracingTransport
	nodeRounds float64

	// live free-running
	backlog    []float64
	frontierMS []float64
	skew       []float64
	advances   int64
	stalls     int64
	activeMax  int64
	expired    int64
	micro      values // rumorset replays

	// membership and peer transport
	peer     *peerTrace
	lookups  int64
	timeouts int64
	peerRuns int

	tracedWall, untracedWall []float64
}

func newLayers() *layers {
	return &layers{
		rt:          &runtimeWindow{},
		phaseRounds: map[string]float64{},
		phaseBits:   map[string]float64{},
		phaseMS:     map[string]float64{},
		micro:       values{},
	}
}

// values turns the accumulated figures into the per-layer metric set; a
// layer the workload never exercised reports 0.
func (l *layers) values() values {
	v := values{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	v.setDist("phonecall.round_ms", l.roundMS)
	if l.callSlots > 0 {
		v["phonecall.calls_per_node_round"] = float64(l.calls) / float64(l.callSlots)
	}
	v["phonecall.max_comms"] = float64(l.maxComms)
	v["phonecall.contact_ns"] = l.contactNS
	if l.phaseRuns > 0 {
		for _, ph := range corePhases {
			k := float64(l.phaseRuns)
			v["core."+ph+".rounds"] = l.phaseRounds[ph] / k
			v["core."+ph+".wall_ms"] = l.phaseMS[ph] / k
			v["core."+ph+".bits"] = l.phaseBits[ph] / k
		}
	}
	v.setDist("live.lockstep.round_ms", l.execMS)
	procs := float64(runtime.GOMAXPROCS(0))
	if tt := l.tt; tt != nil {
		frames, bytes, busy, sendNS := tt.totals()
		if l.nodeRounds > 0 {
			v["live.transport.frames_per_node_round"] = float64(frames) / l.nodeRounds
		}
		v.setDist("live.transport.send_ns", sendNS)
		if frames > 0 {
			v["live.transport.frame_bytes.mean"] = float64(bytes) / float64(frames)
		}
		if w := l.rt.wall.Seconds(); w > 0 {
			v["live.transport.send_busy_frac"] = busy.Seconds() / (w * procs)
		}
		if l.execTotal > 0 {
			v["live.lockstep.self_frac"] = 1 - min(1, busy.Seconds()/(l.execTotal.Seconds()*procs))
		}
	}
	v.setDist("live.mailbox.backlog", l.backlog)
	v.setDist("live.freerun.frontier_ms", l.frontierMS)
	if len(l.skew) > 0 {
		v["live.freerun.skew.mean"] = mean(l.skew)
		mx := 0.0
		for _, s := range l.skew {
			mx = max(mx, s)
		}
		v["live.freerun.skew.max"] = mx
	}
	if l.advances > 0 {
		v["rumorset.stall_frac"] = float64(l.stalls) / float64(l.advances)
	}
	v["rumorset.active.max"] = float64(l.activeMax)
	v["rumorset.expired"] = float64(l.expired)
	for k, x := range l.micro {
		v[k] = x
	}
	if p := l.peer; p != nil && l.peerRuns > 0 {
		v.setDist("membership.bootstrap_ms", p.bootstrapMS)
		v.setDist("membership.ping_us", p.pingUS)
		v["membership.table_contacts.bootstrap.min"] = minOf(p.contactsBoot)
		v["membership.table_contacts.bootstrap.mean"] = mean(p.contactsBoot)
		v["membership.table_contacts.end.min"] = minOf(p.contactsEnd)
		v["membership.table_contacts.end.mean"] = mean(p.contactsEnd)
		k := float64(l.peerRuns)
		v["membership.lookups"] = float64(l.lookups) / k
		v["membership.rpc_timeouts"] = float64(l.timeouts) / k
		if p.sends > 0 {
			v["live.peer.send_miss_frac"] = float64(p.misses) / float64(p.sends)
		}
		v["live.peer.send_failures"] = float64(p.sendFails) / k
	}
	if u := median(l.untracedWall); u > 0 {
		v["telemetry.overhead_frac"] = median(l.tracedWall)/u - 1
	}
	l.rt.report(v)
	return v
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// tracedExec runs fn as one timed traced execution inside the runtime window.
func (l *layers) tracedExec(fn func(e *execution)) execution {
	return timed(func(e *execution) {
		l.rt.open()
		t0 := time.Now()
		fn(e)
		l.rt.close(time.Since(t0))
	})
}

// ---- phonecall observer ---------------------------------------------------

// roundSpans is a phonecall.RoundObserver: a span per round (BeginRound to
// EndRound), intents counted per node, Δ tracked, and the program's own
// engine telemetry tap fed through it.
type roundSpans struct {
	tel   *harness.EngineTelemetry
	net   *phonecall.Network
	rt    *runtimeWindow
	begin time.Time
	ends  []time.Time // EndRound time by round number (index 0: start)
	ms    []float64
	calls []int32 // per node; node i is observed by one shard per round
	live  int64   // Σ live nodes over rounds
	maxΔ  int
}

func newRoundSpans(reg *telemetry.Registry, algo, engine string, rt *runtimeWindow) *roundSpans {
	return &roundSpans{tel: harness.NewEngineTelemetry(reg, algo, engine), rt: rt}
}

func (o *roundSpans) BindNetwork(net *phonecall.Network) {
	o.net = net
	o.calls = make([]int32, net.N())
	o.tel.BindNetwork(net)
}

func (o *roundSpans) BeginRound(round int, info phonecall.RoundInfo) {
	o.tel.BeginRound(round, info)
	o.begin = time.Now()
}

func (o *roundSpans) ObserveIntent(i int, it phonecall.Intent) {
	if it.Kind != phonecall.None {
		o.calls[i]++
	}
}

func (o *roundSpans) ObserveResponse(int, phonecall.Message, bool) {}
func (o *roundSpans) ObserveDeliver(int, []phonecall.Message)      {}

func (o *roundSpans) EndRound(rep phonecall.RoundReport) {
	now := time.Now()
	o.ms = append(o.ms, ms(now.Sub(o.begin)))
	for len(o.ends) <= rep.Round {
		o.ends = append(o.ends, now)
	}
	o.ends[rep.Round] = now
	o.live += int64(o.net.LiveCount())
	o.maxΔ = max(o.maxΔ, rep.MaxComms)
	o.rt.sampleGoroutines()
	o.tel.EndRound(rep)
}

// fold moves the execution's observations into l; phases, when given, are
// bucketed by round range with the EndRound timestamps.
func (o *roundSpans) fold(l *layers, start time.Time, phases []trace.Phase) {
	l.roundMS = append(l.roundMS, o.ms...)
	for _, c := range o.calls {
		l.calls += int64(c)
	}
	l.callSlots += o.live
	l.maxComms = max(l.maxComms, o.maxΔ)
	if len(phases) == 0 {
		return
	}
	if len(o.ends) > 0 {
		o.ends[0] = start
	}
	at := func(r int) time.Time { return o.ends[min(r, len(o.ends)-1)] }
	r := 0
	for _, ph := range phases {
		l.phaseRounds[ph.Name] += float64(ph.Rounds)
		l.phaseBits[ph.Name] += float64(ph.Bits)
		l.phaseMS[ph.Name] += ms(at(r + ph.Rounds).Sub(at(r)))
		r += ph.Rounds
	}
	l.phaseRuns++
}

// ---- lock-step executor and transport interposers -------------------------

// execSpans wraps a RoundExecutor with a span per executed round.
type execSpans struct {
	inner phonecall.RoundExecutor
	l     *layers
}

func (x execSpans) ExecNetworkRound(net *phonecall.Network, round int,
	intentOf func(i int) phonecall.Intent,
	responseOf func(i int) (phonecall.Message, bool),
	deliver func(i int, inbox []phonecall.Message),
) phonecall.RoundDelta {
	t0 := time.Now()
	d := x.inner.ExecNetworkRound(net, round, intentOf, responseOf, deliver)
	dt := time.Since(t0)
	x.l.execMS = append(x.l.execMS, ms(dt))
	x.l.execTotal += dt
	return d
}

// sendSampleEvery keeps one send latency in this many per sender.
const sendSampleEvery = 8

// tracingTransport wraps a live.Transport, counting frames and bytes and
// timing Send per sending node. The transport contract has only node i's
// goroutine send as i, so each sender's record is touched by one goroutine
// and read after the engine joins.
type tracingTransport struct {
	live.Transport
	per []sendRecord
}

type sendRecord struct {
	frames, bytes int64
	busy          time.Duration
	ns            []float64
	_             [16]byte // pad to 64 bytes so neighbouring senders rarely share a cache line
}

func newTracingTransport(tr live.Transport) *tracingTransport {
	return &tracingTransport{Transport: tr, per: make([]sendRecord, tr.N())}
}

func (t *tracingTransport) Send(from, to int, frame []byte) {
	size := len(frame) // the transport owns frame once Send is called
	t0 := time.Now()
	t.Transport.Send(from, to, frame)
	dt := time.Since(t0)
	if from < 0 || from >= len(t.per) {
		return
	}
	r := &t.per[from]
	if r.frames%sendSampleEvery == 0 {
		r.ns = append(r.ns, float64(dt.Nanoseconds()))
	}
	r.frames++
	r.bytes += int64(size)
	r.busy += dt
}

func (t *tracingTransport) totals() (frames, bytes int64, busy time.Duration, ns []float64) {
	for i := range t.per {
		r := &t.per[i]
		frames += r.frames
		bytes += r.bytes
		busy += r.busy
		ns = append(ns, r.ns...)
	}
	return frames, bytes, busy, ns
}

// backlog returns Σ Mailbox(i).Len() over the transport's nodes.
func backlog(tr live.Transport) int {
	total := 0
	for i := 0; i < tr.N(); i++ {
		if mb := tr.Mailbox(i); mb != nil {
			total += mb.Len()
		}
	}
	return total
}

// ---- traced workloads -----------------------------------------------------

// resultOf maps an engine result onto the facade's Result, so traced and
// untraced executions are costed and checked by the same code.
func resultOf(r trace.Result) repro.Result {
	out := repro.Result{
		Algorithm: r.Algorithm, N: r.N, Seed: r.Seed,
		Rounds: r.Rounds, CompletionRound: r.CompletionRound,
		Messages: r.Messages, ControlMessages: r.ControlMessages, Bits: r.Bits,
		MessagesPerNode: r.MessagesPerNode, MaxCommsPerRound: r.MaxCommsPerRound,
		Live: r.Live, Informed: r.Informed, AllInformed: r.AllInformed,
	}
	for _, p := range r.Phases {
		out.Phases = append(out.Phases, repro.Phase(p))
	}
	return out
}

func (w *simCluster2) traced(ctx context.Context, l *layers) execution {
	c := w.c
	var net *phonecall.Network
	e := l.tracedExec(func(e *execution) {
		var err error
		net, err = phonecall.New(phonecall.Config{N: c.simN, Seed: c.seed, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			e.err = err
			return
		}
		obs := newRoundSpans(telemetry.NewRegistry(), "cluster2", "simulator", l.rt)
		obs.BindNetwork(net)
		net.Observe(obs)
		start := time.Now()
		res, err := core.Cluster2(net, []int{0}, core.Params{})
		if err != nil {
			e.err = err
			return
		}
		obs.fold(l, start, res.Phases)
		r := resultOf(res)
		e.fromResult(r)
		e.err = checkAllInformed(r)
	})
	if e.err == nil && net != nil {
		l.contactNS = contactReplay(net, e.fp.rounds)
	}
	return e
}

// contactReplay times Network.RandomContact over the run's (round, node)
// pairs, striding over nodes to cap the replay at about two million calls.
func contactReplay(net *phonecall.Network, rounds int) float64 {
	n := net.N()
	stride := max(1, rounds*n/2_000_000)
	calls, sum := 0, 0
	t0 := time.Now()
	for r := 1; r <= rounds; r++ {
		for i := 0; i < n; i += stride {
			j, _ := net.RandomContact(r, i)
			sum += j
			calls++
		}
	}
	dt := time.Since(t0)
	contactSink = sum
	return float64(dt.Nanoseconds()) / float64(max(calls, 1))
}

// contactSink keeps the contact replay's results live, so the compiler
// cannot drop the calls being timed.
var contactSink int

func (w *lockstepPushPull) traced(ctx context.Context, l *layers) execution {
	c := w.c
	return l.tracedExec(func(e *execution) {
		net, err := phonecall.New(phonecall.Config{N: c.lockN, Seed: c.seed})
		if err != nil {
			e.err = err
			return
		}
		ch, err := live.NewChannelTransport(c.lockN, live.ChannelConfig{})
		if err != nil {
			e.err = err
			return
		}
		defer ch.Close()
		tt := l.transport(ch)
		ls, err := live.NewLockStep(net, tt)
		if err != nil {
			e.err = err
			return
		}
		defer ls.Close()
		net.SetExecutor(execSpans{inner: ls, l: l})
		obs := newRoundSpans(telemetry.NewRegistry(), "push-pull", "lock-step", l.rt)
		obs.BindNetwork(net)
		net.Observe(obs)
		res, err := baseline.PushPull(net, []int{0})
		if err == nil {
			err = ls.Err()
		}
		if err != nil {
			e.err = err
			return
		}
		obs.fold(l, time.Time{}, nil)
		r := resultOf(res)
		e.fromResult(r)
		l.nodeRounds += e.nodeRounds
		e.err = checkAllInformed(r)
		if e.err == nil && e.fp != fingerprintOf(w.ref) {
			e.err = fmt.Errorf("traced lock-step costs %+v differ from the simulator's %+v", e.fp, fingerprintOf(w.ref))
		}
	})
}

// transport returns the run's tracing transport over tr, reusing the
// per-sender records across executions.
func (l *layers) transport(tr live.Transport) *tracingTransport {
	if l.tt == nil || len(l.tt.per) != tr.N() {
		l.tt = newTracingTransport(tr)
	} else {
		l.tt.Transport = tr
	}
	return l.tt
}

func (w *freerunStream) traced(ctx context.Context, l *layers) execution {
	c := w.c
	e := l.tracedExec(func(e *execution) {
		ch, err := live.NewChannelTransport(c.freeN, live.ChannelConfig{})
		if err != nil {
			e.err = err
			return
		}
		defer ch.Close()
		tt := l.transport(ch)
		reg := telemetry.NewRegistry()
		var active *telemetry.Gauge
		var last time.Time
		lastFrontier := 0
		fr, err := live.NewFreeRun(live.FreeRunConfig{
			N:         c.freeN,
			Seed:      c.seed,
			Rounds:    c.freeBudget(),
			Algorithm: scenario.AlgoPushPull,
			Transport: tt,
			Telemetry: reg,
			Stream:    &live.StreamConfig{Total: c.streamTotal, Rate: c.streamRate, MaxInFlight: c.streamWindow},
			OnFrontier: func(fi live.FrontierInfo) {
				now := time.Now()
				if lastFrontier > 0 && fi.Frontier > lastFrontier {
					l.frontierMS = append(l.frontierMS, ms(now.Sub(last))/float64(fi.Frontier-lastFrontier))
				}
				last, lastFrontier = now, fi.Frontier
				l.advances++
				l.skew = append(l.skew, float64(fi.MaxRound-fi.Frontier))
				l.backlog = append(l.backlog, float64(backlog(tt)))
				if active == nil {
					active = reg.Gauge("repro_rumors_active",
						telemetry.Label{Key: "algo", Value: string(scenario.AlgoPushPull)},
						telemetry.Label{Key: "engine", Value: "free-running"})
				}
				l.activeMax = max(l.activeMax, active.Value())
				l.rt.sampleGoroutines()
			},
		})
		if err != nil {
			e.err = err
			return
		}
		rep, err := fr.Run(ctx)
		if err != nil {
			e.err = err
			return
		}
		l.stalls += rep.InjectionStalls
		l.expired += rep.RumorsExpired
		e.fromStream(streamOutcome{
			live: rep.Live, n: rep.N, maxRound: rep.MaxRound, completion: rep.CompletionFrontier,
			msgs: rep.Messages + rep.ControlMessages, bits: rep.Bits,
			converged: rep.RumorsConverged, active: rep.RumorsActive, drops: rep.Drops,
			sendFailures: rep.SendFailures, lost: rep.LostInjects,
		}, c.streamTotal)
		l.nodeRounds += e.nodeRounds
	})
	if len(l.micro) == 0 && e.err == nil {
		if err := rumorsetReplay(c, l.micro); err != nil {
			e.err = err
		}
	}
	return e
}

// rumorsetReplay times the rumor-set operations of the stream's hot path on
// a Set shaped like the stream's (n nodes, full window): MarkIDs of a whole
// window summary at every node, ScanConverged over all rows, and the
// summary wire encoding both ways.
func rumorsetReplay(c config, v values) error {
	ids := make([]rumorset.ID, c.streamWindow)
	for k := range ids {
		ids[k] = rumorset.ID(k * 3) // gaps, as in a stream with retired rumors
	}
	const reps = 5
	var markNS, scanNS, encNS, decNS []float64
	var buf []byte
	var dec []rumorset.ID
	var conv []rumorset.ID
	for rep := 0; rep < reps; rep++ {
		set, err := rumorset.New(c.freeN, c.streamWindow)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if err := set.Register(id); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for node := 0; node < c.freeN; node++ {
			set.MarkIDs(node, ids)
		}
		markNS = append(markNS, perOp(time.Since(t0), c.freeN))
		const scans = 200
		t0 = time.Now()
		for k := 0; k < scans; k++ {
			conv = set.ScanConverged(conv[:0], func(int) bool { return true })
		}
		scanNS = append(scanNS, perOp(time.Since(t0), scans))
		if len(conv) != len(ids) {
			return fmt.Errorf("rumorset replay: %d of %d rumors converged", len(conv), len(ids))
		}
		const codecs = 2000
		t0 = time.Now()
		for k := 0; k < codecs; k++ {
			buf = rumorset.AppendSummary(buf[:0], ids)
		}
		encNS = append(encNS, perOp(time.Since(t0), codecs))
		t0 = time.Now()
		for k := 0; k < codecs; k++ {
			dec, _, err = rumorset.DecodeSummary(dec[:0], buf)
			if err != nil {
				return err
			}
		}
		decNS = append(decNS, perOp(time.Since(t0), codecs))
	}
	v["rumorset.markids_ns"] = median(markNS)
	v["rumorset.scan_converged_ns"] = median(scanNS)
	v["rumorset.summary_encode_ns"] = median(encNS)
	v["rumorset.summary_decode_ns"] = median(decNS)
	return nil
}

func perOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

func (w *peerUDP) traced(ctx context.Context, l *layers) execution {
	if l.peer == nil {
		l.peer = &peerTrace{}
	}
	l.peer.rt = l.rt
	reg := telemetry.NewRegistry()
	l.peer.reg = reg
	e := l.tracedExec(func(e *execution) { w.run(ctx, e, l.peer) })
	l.lookups += reg.Counter("repro_membership_lookups_total").Value()
	l.timeouts += reg.Counter("repro_membership_rpc_timeouts_total").Value()
	l.peerRuns++
	return e
}
