package live

import (
	"context"
	"testing"
	"time"

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

// putGarbage queues copies of every garbage frame round-robin over the
// transport's mailboxes until total frames are queued, and returns how many
// landed in each mailbox.
func putGarbage(tr Transport, total int) []int64 {
	garbage := garbageFrames()
	perNode := make([]int64, tr.N())
	for k := 0; k < total; k++ {
		g := garbage[k%len(garbage)]
		node := k % tr.N()
		tr.Mailbox(node).Put(append([]byte(nil), g...))
		perNode[node]++
	}
	return perNode
}

// TestFreeRunCountsBadFrames puts garbage frames into the live mailboxes
// while a free-running run is under way, in bitmask and stream mode: every
// one is counted exactly once in Report.BadFrames and the run still
// converges. The frames are queued at the first frontier advance; a rumor
// injected later (bitmask) or a stream still injecting (stream) keeps every
// node running rounds, and so draining, long after that.
func TestFreeRunCountsBadFrames(t *testing.T) {
	const n, total = 16, 45
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
			tr, err := NewChannelTransport(n, ChannelConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
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
			if rep.BadFrames != total {
				t.Fatalf("BadFrames = %d, want %d", rep.BadFrames, total)
			}
			if !rep.AllInformed {
				t.Fatalf("run with garbage frames did not converge: %+v", rep)
			}
		})
	}
}

// TestPeerNodeCountsBadFrames checks PeerNode's receive loop: garbage queued
// in both mailboxes of a two-node deployment is counted per node in
// PeerReport.BadFrames, and both nodes still converge.
func TestPeerNodeCountsBadFrames(t *testing.T) {
	tr, err := NewChannelTransport(2, ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	perNode := putGarbage(tr, 13)
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
}
