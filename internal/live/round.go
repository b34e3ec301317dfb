package live

import (
	"bytes"
	"math/bits"
	"sync/atomic"

	"repro/internal/phonecall"
	"repro/internal/rumorset"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// node is one free-running node: everything the shared round needs, owned by
// the node's goroutine (a FreeRun node loop or a PeerNode's Run). The round
// is the random phone call model's node step (Section 2): at most one PUSH,
// PULL or exchange call to a random contact, then one address-oblivious
// response handed to every node that pulled.
type node struct {
	i    int
	algo scenario.Algorithm
	net  *phonecall.Network
	tr   Transport
	h    holdings
	// telMsgs and telBits receive the send path's traffic (nil without
	// telemetry).
	telMsgs, telBits *telemetry.Counter

	stats nodeStats
	// needy reports that the last round drained evidence of a peer still
	// missing rumors: a bare pull, or holdings lacking a wanted rumor.
	needy bool

	drain [][]byte
	sum   []rumorset.ID // summary decode scratch
	pulls []int         // this round's pullers

	_ [64]byte // keeps adjacent nodes' hot fields off one cache line
}

// nodeStats is one node's cumulative traffic accounting, written by the
// node's goroutine and read once it has stopped.
type nodeStats struct {
	msgs, control, bits int64
	bad                 int64 // received frames rejected: unparseable, or a forged source
	maxComms            int32
}

// holdings is one node's rumor holdings in one wire format. It hides only the
// format; the round decides who is called, when, and who is answered.
type holdings interface {
	// count returns how many wanted rumors the node holds and how many rumors
	// are wanted. It only reads, so the FreeRun monitor may call it too.
	count() (held, wanted int)
	// call encodes the round-r call of the given kind to contact j from the
	// current holdings, and returns its destination, frame and bit charge;
	// payload is false for a bare pull, a nil frame means no call.
	call(r, j int, kind phonecall.Kind) (dst int, frame []byte, bits int64, payload bool)
	// merge folds an accepted frame's rumors into the holdings; ok reports
	// whether the frame carried holdings, and carried how many wanted rumors
	// they name.
	merge(f frame) (carried int, ok bool)
	// response encodes the round-r pull response from the current holdings
	// (ok=false: none).
	response(r int) (frame []byte, bits int64, ok bool)
}

// round runs the node's local round r: call, drain, merge, answer.
func (nd *node) round(r int) {
	held, wanted := nd.h.count()
	comms := int32(0)
	if j, ok := nd.net.RandomContact(r, nd.i); ok { // a declining policy sits the round out
		kind := phonecall.Exchange
		switch nd.algo {
		case scenario.AlgoPush:
			kind = phonecall.None
			if held > 0 {
				kind = phonecall.Push
			}
		case scenario.AlgoPull:
			kind = phonecall.None
			if held != wanted || wanted == 0 {
				kind = phonecall.Pull
			}
		}
		if dst, frame, size, payload := nd.h.call(r, j, kind); frame != nil {
			nd.send(dst, frame, size, payload)
			comms++
		}
	}

	nd.drain = nd.tr.Mailbox(nd.i).TryDrain(nd.drain[:0])
	nd.needy = false
	pulls := nd.pulls[:0]
	for _, raw := range nd.drain {
		f, err := parseFrameBuf(raw, nd.sum[:0])
		// A node never calls itself and no index lies outside the mesh: such a
		// source is forged, and the frame is neither charged nor merged.
		if err != nil || f.src < 0 || f.src >= nd.net.N() || f.src == nd.i {
			nd.stats.bad++
			continue
		}
		if f.hasSummary {
			nd.sum = f.sum[:0]
		}
		if carried, ok := nd.h.merge(f); ok && carried < wanted {
			nd.needy = true
		}
		if f.typ != frameCall {
			continue
		}
		comms++
		if f.wantsPull {
			if !f.hasPayload && !f.hasSummary {
				nd.needy = true
			}
			pulls = append(pulls, f.src)
		}
	}
	nd.pulls = pulls

	// One response per round, from the holdings the drain just refreshed,
	// handed to every puller; each send gets its own copy because the
	// transport owns what it is given.
	if len(pulls) > 0 && nd.algo != scenario.AlgoPush {
		if frame, size, ok := nd.h.response(r); ok {
			for k, src := range pulls {
				out := frame
				if k < len(pulls)-1 {
					out = bytes.Clone(frame)
				}
				nd.send(src, out, size, true)
			}
		}
	}
	nd.stats.maxComms = max(nd.stats.maxComms, comms)
}

// send charges one message (payload or control) and hands the frame over.
func (nd *node) send(to int, frame []byte, size int64, payload bool) {
	if payload {
		nd.stats.msgs++
	} else {
		nd.stats.control++
	}
	nd.stats.bits += size
	if nd.telMsgs != nil {
		nd.telMsgs.AddShard(nd.i, 1)
		nd.telBits.AddShard(nd.i, size)
	}
	nd.tr.Send(nd.i, to, frame)
}

// pullCall encodes node i's bare pull request with its control charge.
func pullCall(net *phonecall.Network, r, i int) ([]byte, int64) {
	return appendCallFrame(nil, r, i, false, true, nil), int64(net.ControlBits())
}

// maskHoldings is the 64-rumor format: the holdings are one atomic word, the
// wanted rumors another, and calls and responses carry the holdings word as a
// tagHoldings message charged one payload per rumor. Its calls and responses
// pass through the node's installed phonecall.Behavior, if any.
type maskHoldings struct {
	i        int
	net      *phonecall.Network
	overhead int
	held     *atomic.Uint64
	want     *atomic.Uint64
	behav    *atomic.Pointer[frBehavior] // nil: the node is always honest
}

func (m *maskHoldings) count() (int, int) {
	want := m.want.Load()
	return bits.OnesCount64(m.held.Load() & want), bits.OnesCount64(want)
}

// msg encodes a holdings word, charged one payload per rumor.
func (m *maskHoldings) msg(held uint64) phonecall.Message {
	return phonecall.Message{
		Tag:   tagHoldings,
		Value: held,
		Rumor: true,
		Bits:  m.overhead + bits.OnesCount64(held)*m.net.PayloadBits(),
	}
}

func (m *maskHoldings) behavior() phonecall.Behavior {
	if m.behav != nil {
		if cell := m.behav.Load(); cell != nil {
			return cell.b
		}
	}
	return nil
}

func (m *maskHoldings) call(r, j int, kind phonecall.Kind) (int, []byte, int64, bool) {
	it := phonecall.Intent{Kind: kind}
	if kind != phonecall.None {
		it.Target = phonecall.RandomTarget()
		if held := m.held.Load() & m.want.Load(); held != 0 && kind != phonecall.Pull {
			it.Payload = m.msg(held)
		}
	}
	dst := j
	// The behavior sees the honest intent and its resolved target, like the
	// barriered engines' wrap, so a timeline's adversaries act identically.
	if b := m.behavior(); b != nil {
		target := -1
		if kind != phonecall.None {
			target = j
		}
		it = b.RewriteIntent(r, m.i, target, it)
		if !it.Target.Random {
			dst = -1
			if idx, ok := m.net.IndexOf(it.Target.ID); ok && idx != m.i {
				dst = idx
			}
		}
	}
	switch {
	case it.Kind == phonecall.None || dst < 0:
		return -1, nil, 0, false
	case it.Kind == phonecall.Pull, it.Kind == phonecall.Exchange && !it.Payload.HasContent():
		frame, size := pullCall(m.net, r, m.i)
		return dst, frame, size, false
	}
	it.Payload.From = m.net.ID(m.i)
	frame := appendCallFrame(nil, r, m.i, true, it.Kind == phonecall.Exchange, &it.Payload)
	return dst, frame, int64(m.net.MessageSize(it.Payload)), true
}

func (m *maskHoldings) merge(f frame) (int, bool) {
	if !f.hasPayload || f.msg.Tag != tagHoldings {
		return 0, false
	}
	got := f.msg.Value & m.want.Load()
	m.held.Or(got)
	return bits.OnesCount64(got), true
}

func (m *maskHoldings) response(r int) ([]byte, int64, bool) {
	var msg phonecall.Message
	held := m.held.Load() & m.want.Load()
	ok := held != 0
	if ok {
		msg = m.msg(held)
	}
	if b := m.behavior(); b != nil {
		msg, ok = b.RewriteResponse(r, m.i, msg, ok)
	}
	if !ok {
		return nil, 0, false
	}
	msg.From = m.net.ID(m.i)
	return appendRespFrame(nil, r, m.i, &msg), int64(m.net.MessageSize(msg)), true
}

// setHoldings is the rumor-stream format: the node's row of the shared
// rumorset, advertised as summary frames of sorted rumor IDs. The node marks
// only its own row (the set's ownership contract). It has no Behavior seam:
// scenario.ValidateEvents rejects CorruptAt on stream runs.
type setHoldings struct {
	i        int
	net      *phonecall.Network
	overhead int
	set      *rumorset.Set
	ids      []rumorset.ID // scratch: the holdings a call or response advertises
}

func (s *setHoldings) count() (int, int) { return s.set.HeldCount(s.i), s.set.Active() }

// charge is the simulator's wide-path accounting of a summary of count IDs
// encoded in size bytes: frame overhead, the summary itself, and one b-bit
// payload per carried rumor.
func (s *setHoldings) charge(count, size int) int64 {
	return int64(s.overhead + size*8 + count*s.net.PayloadBits())
}

func (s *setHoldings) call(r, j int, kind phonecall.Kind) (int, []byte, int64, bool) {
	if kind == phonecall.None {
		return -1, nil, 0, false
	}
	s.ids = s.set.AppendHeld(s.ids[:0], s.i)
	switch {
	case kind == phonecall.Pull, kind == phonecall.Exchange && len(s.ids) == 0:
		frame, size := pullCall(s.net, r, s.i)
		return j, frame, size, false
	case len(s.ids) == 0: // a push whose rumors were retired since count
		return -1, nil, 0, false
	}
	size := rumorset.SummarySize(s.ids)
	frame := newSummaryCallFrame(r, s.i, kind == phonecall.Exchange, s.ids, size)
	return j, frame, s.charge(len(s.ids), size), true
}

func (s *setHoldings) merge(f frame) (int, bool) {
	if !f.hasSummary {
		return 0, false
	}
	if len(f.sum) > 0 {
		s.set.MarkIDs(s.i, f.sum) // stale or expired IDs are skipped inside
	}
	return len(f.sum), true
}

func (s *setHoldings) response(r int) ([]byte, int64, bool) {
	s.ids = s.set.AppendHeld(s.ids[:0], s.i)
	if len(s.ids) == 0 {
		return nil, 0, false
	}
	size := rumorset.SummarySize(s.ids)
	return newSummaryRespFrame(r, s.i, s.ids, size), s.charge(len(s.ids), size), true
}
