package scenario

import (
	"fmt"

	"repro/internal/phonecall"
)

// The steppable protocols: multi-rumor generalizations of the classical
// uniform gossip protocols, expressed directly through the engine's per-node
// callback contract so the scenario driver can interleave timeline events
// between rounds. A message carries the sender's whole holdings, in the
// format of the run's ledger (ledger.go), and is charged one payload per
// carried rumor.
//
// The paper's clustering algorithms are phase-structured, closed drivers and
// are not steppable; they run under scenarios through Timeline.Attach
// instead (churn and loss, single implicit rumor).

// Algorithm selects a steppable scenario protocol.
type Algorithm string

// The steppable protocols.
const (
	// AlgoPush: every node holding at least one rumor pushes its holdings to
	// a uniformly random node; empty nodes stay silent.
	AlgoPush Algorithm = "push"
	// AlgoPull: every node missing at least one injected rumor pulls from a
	// uniformly random node (anti-entropy); the responder answers with its
	// holdings.
	AlgoPull Algorithm = "pull"
	// AlgoPushPull: every node exchanges with a uniformly random node,
	// sending its holdings (if any) and receiving the callee's.
	AlgoPushPull Algorithm = "push-pull"
)

// Algorithms lists the steppable protocols in comparison order.
func Algorithms() []Algorithm { return []Algorithm{AlgoPush, AlgoPull, AlgoPushPull} }

// orDefault resolves the empty algorithm to the default and rejects unknown
// names.
func (a Algorithm) orDefault() (Algorithm, error) {
	switch a {
	case "":
		return AlgoPushPull, nil
	case AlgoPush, AlgoPull, AlgoPushPull:
		return a, nil
	default:
		return "", fmt.Errorf("scenario: unknown algorithm %q (have push, pull, push-pull)", a)
	}
}

// tagRumorSet marks messages that carry holdings.
const tagRumorSet uint8 = 111

// protocol binds one steppable protocol to a holdings ledger. Delivery needs
// no protocol logic: the ledger's merge is the engine's deliver callback.
type protocol struct {
	algo     Algorithm
	l        ledger
	overhead int // bits charged for the tag and counters of a holdings message
	payload  int // b, charged once per carried rumor
}

func newProtocol(algo Algorithm, net *phonecall.Network, l ledger) *protocol {
	overhead := net.MessageSize(phonecall.Message{Tag: tagRumorSet})
	return &protocol{algo: algo, l: l, overhead: overhead, payload: net.PayloadBits()}
}

// message encodes node i's holdings (ok=false: it holds nothing).
func (p *protocol) message(i int, resp bool) (phonecall.Message, bool) {
	value, ids, rumors, digestBits := p.l.held(i, resp)
	if rumors == 0 {
		return phonecall.Message{}, false
	}
	return phonecall.Message{Tag: tagRumorSet, Rumor: true, Value: value, IDs: ids,
		Bits: p.overhead + digestBits + rumors*p.payload}, true
}

// intent implements the per-node initiation of the selected protocol: push
// stays silent when empty, pull stays silent when the node holds every rumor
// in flight, push-pull always exchanges. Reads only node i's own holdings
// plus coordinator-written ledger state, per the engine's callback contract.
func (p *protocol) intent(i int) phonecall.Intent {
	switch p.algo {
	case AlgoPush:
		m, ok := p.message(i, false)
		if !ok {
			return phonecall.Silent()
		}
		return phonecall.PushIntent(phonecall.RandomTarget(), m)
	case AlgoPull:
		if p.l.holdsAll(i) {
			return phonecall.Silent()
		}
		return phonecall.PullIntent(phonecall.RandomTarget())
	default: // AlgoPushPull
		m, _ := p.message(i, false)
		return phonecall.ExchangeIntent(phonecall.RandomTarget(), m)
	}
}

// response answers pulls with the responder's holdings (address-oblivious:
// one response per round, handed to every puller).
func (p *protocol) response(j int) (phonecall.Message, bool) {
	if p.algo == AlgoPush {
		return phonecall.Message{}, false
	}
	return p.message(j, true)
}
