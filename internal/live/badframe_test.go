package live

import (
	"context"
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/phonecall"
	"repro/internal/rumorset"
	"repro/internal/scenario"
)

// garbageFrames returns one frame per parse error path: too short, unknown
// type, missing round or src, trailing bytes on a bare call, a truncated
// message block, and truncated, trailing-padded and overflowing summaries.
func garbageFrames() [][]byte {
	return [][]byte{
		{},
		{frameCall},
		{99, 0, 1, 1},
		{frameCall, 0},
		{frameCall, 0, 1},
		{frameCall, 0, 1, 1, 0xAA},
		{frameResp, flagPayload, 1, 1, 1, 2},
		{frameCall, flagPayload | flagSummary, 1, 1, 3, 0},
		{frameCall, flagSummary, 1, 1, 0, 7},
		{frameResp, flagSummary, 1, 1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f, 0},
	}
}

// forgedFrames returns well-formed frames to node self that claim a source
// no honest node can have: an index past the mesh, one that decodes
// negative, and self, which a node never calls. Bare pulls and calls and
// responses carrying rumor 0 cover both holdings formats.
func forgedFrames(n, self int) [][]byte {
	m := phonecall.Message{Tag: tagHoldings, Value: 1, Rumor: true}
	negative := binary.AppendUvarint([]byte{frameCall, flagPull, 1}, math.MaxUint64)
	return [][]byte{
		appendCallFrame(nil, 1, n, false, true, nil),
		appendCallFrame(nil, 1, self, false, true, nil),
		appendCallFrame(nil, 1, n+7, true, true, &m),
		appendRespFrame(nil, 1, self, &m),
		appendSummaryCallFrame(nil, 1, self, true, []rumorset.ID{0}),
		appendSummaryRespFrame(nil, 1, n, []rumorset.ID{0}),
		negative,
	}
}

// hostileFrames is every frame a receive loop must reject for node self of
// an n-node mesh: garbage, then forged sources.
func hostileFrames(n, self int) [][]byte {
	return append(garbageFrames(), forgedFrames(n, self)...)
}

// putGarbage queues hostile frames round-robin over the transport's
// mailboxes until total frames are queued, and returns how many landed in
// each mailbox.
func putGarbage(tr Transport, total int) []int64 {
	perNode := make([]int64, tr.N())
	for k := 0; k < total; k++ {
		node := k % tr.N()
		frames := hostileFrames(tr.N(), node)
		tr.Mailbox(node).Put(frames[k%len(frames)])
		perNode[node]++
	}
	return perNode
}

// forgeryWatch is a transport that counts sends addressed to a forged
// source: an index outside the mesh, or the sender itself.
type forgeryWatch struct {
	Transport
	forged atomic.Int64
}

func (w *forgeryWatch) Send(from, to int, frame []byte) {
	if to < 0 || to >= w.N() || to == from {
		w.forged.Add(1)
	}
	w.Transport.Send(from, to, frame)
}

// TestFreeRunCountsBadFrames puts garbage and forged-source frames into the
// live mailboxes while a free-running run is under way, in bitmask and
// stream mode: every one is counted exactly once in Report.BadFrames, none
// is answered, and the run still converges. The frames are queued at the
// first frontier advance; a rumor
// injected later (bitmask) or a stream still injecting (stream) keeps every
// node running rounds, and so draining, long after that.
func TestFreeRunCountsBadFrames(t *testing.T) {
	const n = 16
	total := 3 * len(hostileFrames(n, 0))
	for _, tc := range []struct {
		name   string
		events []scenario.Event
		stream *StreamConfig
	}{
		{name: "bitmask", events: []scenario.Event{
			scenario.InjectRumor{At: 1, Node: 0, Rumor: 0},
			scenario.InjectRumor{At: 15, Node: 3, Rumor: 1},
		}},
		{name: "stream", stream: &StreamConfig{Total: 48, Rate: 2, MaxInFlight: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ct, err := NewChannelTransport(n, ChannelConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer ct.Close()
			tr := &forgeryWatch{Transport: ct}
			put := false
			fr, err := NewFreeRun(FreeRunConfig{
				N: n, Seed: 3, Rounds: 400, Transport: tr,
				Events: tc.events, Stream: tc.stream,
				OnFrontier: func(FrontierInfo) {
					if !put {
						putGarbage(tr, total)
						put = true
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fr.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !put {
				t.Fatal("the frontier never advanced")
			}
			if rep.BadFrames != int64(total) {
				t.Fatalf("BadFrames = %d, want %d", rep.BadFrames, total)
			}
			if got := tr.forged.Load(); got != 0 {
				t.Fatalf("%d frames sent to forged sources", got)
			}
			if !rep.AllInformed {
				t.Fatalf("run with garbage frames did not converge: %+v", rep)
			}
		})
	}
}

// TestPeerNodeCountsBadFrames checks PeerNode's receive loop: garbage and
// forged-source frames queued in both mailboxes of a two-node deployment are
// counted per node in PeerReport.BadFrames, none is answered, and both nodes
// still converge.
func TestPeerNodeCountsBadFrames(t *testing.T) {
	ct, err := NewChannelTransport(2, ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	tr := &forgeryWatch{Transport: ct}
	perNode := putGarbage(tr, 2*len(hostileFrames(2, 0)))
	reports := make([]PeerReport, 2)
	errs := make(chan error, 2)
	for i := range reports {
		pn, err := NewPeerNode(PeerConfig{
			N: 2, Index: i, Seed: 5, Rounds: 200, Interval: time.Millisecond,
			Inject: uint64(1 - i), Expect: 1, Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			var err error
			reports[i], err = pn.Run(context.Background())
			errs <- err
		}()
	}
	for range reports {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, rep := range reports {
		if rep.BadFrames != perNode[i] {
			t.Errorf("peer %d: BadFrames = %d, want %d", i, rep.BadFrames, perNode[i])
		}
		if !rep.Converged {
			t.Errorf("peer %d did not converge: %+v", i, rep)
		}
	}
	if got := tr.forged.Load(); got != 0 {
		t.Errorf("%d frames sent to forged sources", got)
	}
}
