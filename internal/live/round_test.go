package live

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/phonecall"
	"repro/internal/rumorset"
	"repro/internal/scenario"
)

// countResponses counts how often the round asks its holdings for a response.
type countResponses struct {
	holdings
	encoded int
}

func (c *countResponses) response(r int) ([]byte, int64, bool) {
	c.encoded++
	return c.holdings.response(r)
}

// TestRoundAnswersOnceAfterDrain pins the answering rule on both holdings
// formats. Responder 0 holds rumor 0; before its round, node 1's bare pull
// arrives, then node 2's exchange carrying rumor 1. The round must encode one
// response, after the drain, so both pullers get the same frame and node 1
// learns rumor 1 although its pull arrived first.
func TestRoundAnswersOnceAfterDrain(t *testing.T) {
	const n = 3
	net, err := phonecall.New(phonecall.Config{N: n, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	overhead := net.MessageSize(phonecall.Message{Tag: tagHoldings})
	for _, tc := range []struct {
		name string
		// setup returns responder 0's holdings and node 2's call.
		setup func(t *testing.T) (holdings, []byte)
		// hasRumor1 reports whether a decoded response carries rumor 1.
		hasRumor1 func(f frame) bool
	}{
		{
			name: "mask",
			setup: func(t *testing.T) (holdings, []byte) {
				var held, want atomic.Uint64
				held.Store(1)
				want.Store(3)
				m := phonecall.Message{Tag: tagHoldings, Value: 2, Rumor: true}
				return &maskHoldings{net: net, overhead: overhead, held: &held, want: &want},
					appendCallFrame(nil, 1, 2, true, true, &m)
			},
			hasRumor1: func(f frame) bool { return f.msg.Value&2 != 0 },
		},
		{
			name: "set",
			setup: func(t *testing.T) (holdings, []byte) {
				set, err := rumorset.New(n, 4)
				if err != nil {
					t.Fatal(err)
				}
				if err := set.Inject(0, 0); err != nil {
					t.Fatal(err)
				}
				if err := set.Inject(2, 1); err != nil {
					t.Fatal(err)
				}
				return &setHoldings{net: net, overhead: overhead, set: set},
					appendSummaryCallFrame(nil, 1, 2, true, []rumorset.ID{1})
			},
			hasRumor1: func(f frame) bool { return slices.Contains(f.sum, 1) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewChannelTransport(n, ChannelConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			h, call := tc.setup(t)
			counted := &countResponses{holdings: h}
			nd := node{algo: scenario.AlgoPushPull, net: net, tr: tr, h: counted}
			tr.Mailbox(0).Put(appendCallFrame(nil, 1, 1, false, true, nil))
			tr.Mailbox(0).Put(call)
			nd.round(1)

			if counted.encoded != 1 {
				t.Fatalf("round encoded %d responses, want 1", counted.encoded)
			}
			var resps [][]byte
			for j := 1; j < n; j++ {
				for _, raw := range tr.Mailbox(j).TryDrain(nil) {
					f, err := parseFrame(raw)
					if err != nil {
						t.Fatal(err)
					}
					if f.typ != frameResp {
						continue // responder 0's own call
					}
					if !tc.hasRumor1(f) {
						t.Errorf("node %d's response lacks the rumor merged this round", j)
					}
					resps = append(resps, raw)
				}
			}
			if len(resps) != 2 || !bytes.Equal(resps[0], resps[1]) {
				t.Fatalf("want the same response at both pullers, got %d frames", len(resps))
			}
			if &resps[0][0] == &resps[1][0] {
				t.Fatal("both pullers were handed one buffer; the transport owns each sent frame")
			}
		})
	}
}
