package scenario

import (
	"fmt"
	"math/bits"

	"repro/internal/phonecall"
	"repro/internal/rumorset"
)

// ledger is the scenario driver's rumor holdings in one format. It hides only
// the format; the protocol decides who calls whom and the round loop decides
// when a rumor has completed. Two formats exist: the uint64 bitmask
// (maskLedger, ≤64 dense rumor IDs, the only one Byzantine behaviors can
// rewrite) and the scalable rumor set (setLedger, the full uint32 ID space
// through a bounded in-flight window whose converged rumors are retired).
type ledger interface {
	// held returns node i's holdings as a message carries them: the mask in
	// value or the IDs in ids, the number of rumors, and the digest bits the
	// format charges on top of one payload per rumor. resp selects the
	// response scratch, so a node's intent and response of one round never
	// share a buffer (both stay referenced until delivery). Node side: called
	// from node i's own engine callbacks.
	held(i int, resp bool) (value uint64, ids []phonecall.NodeID, rumors, digestBits int)
	// holdsAll reports whether node i holds every rumor in flight.
	holdsAll(i int) bool
	// merge folds every holdings message of node i's inbox into its own; it
	// is the engine's deliver callback.
	merge(i int, inbox []phonecall.Message)

	// Coordinator side, between rounds.
	inject(node int, id rumorset.ID) error
	fail(nodes []int)   // also fails the nodes on the network
	revive(nodes []int) // rejoin uninformed; also revives them on the network
	// activeIDs appends the in-flight rumor IDs to dst, ascending.
	activeIDs(dst []rumorset.ID) []rumorset.ID
	liveInformed(id rumorset.ID) int
	// retire frees converged rumors and reports whether it did; a format that
	// keeps every rumor for the whole run reports false.
	retire(ids []rumorset.ID) bool
	lost() int64    // injects that landed on a failed node
	expired() int64 // rumors retired
	// tracker is the bitmask tracker CorruptAt behaviors and TrackerBinder
	// observers read, or nil on a format that has none.
	tracker() *phonecall.RumorTracker
}

// maskLedger keeps holdings as one uint64 per node (phonecall.RumorTracker);
// a message carries the sender's whole mask in Value. It never retires.
type maskLedger struct {
	tr *phonecall.RumorTracker
}

func (l *maskLedger) held(i int, _ bool) (uint64, []phonecall.NodeID, int, int) {
	held := l.tr.Held(i)
	return held, nil, bits.OnesCount64(held), 0
}

func (l *maskLedger) holdsAll(i int) bool { return l.tr.Held(i) == l.tr.Registered() }

func (l *maskLedger) merge(i int, inbox []phonecall.Message) {
	var mask uint64
	for _, m := range inbox {
		if m.Tag == tagRumorSet {
			mask |= m.Value
		}
	}
	if mask != 0 {
		l.tr.MarkSet(i, mask)
	}
}

func (l *maskLedger) inject(node int, id rumorset.ID) error {
	return l.tr.Inject(node, phonecall.RumorID(id))
}

func (l *maskLedger) fail(nodes []int)   { l.tr.Fail(nodes...) }
func (l *maskLedger) revive(nodes []int) { l.tr.Revive(nodes...) }

func (l *maskLedger) activeIDs(dst []rumorset.ID) []rumorset.ID {
	for reg := l.tr.Registered(); reg != 0; reg &= reg - 1 {
		dst = append(dst, rumorset.ID(bits.TrailingZeros64(reg)))
	}
	return dst
}

func (l *maskLedger) liveInformed(id rumorset.ID) int {
	return l.tr.LiveInformed(phonecall.RumorID(id))
}

func (l *maskLedger) retire([]rumorset.ID) bool        { return false }
func (l *maskLedger) lost() int64                      { return l.tr.LostInjects() }
func (l *maskLedger) expired() int64                   { return 0 }
func (l *maskLedger) tracker() *phonecall.RumorTracker { return l.tr }

// setLedger keeps holdings in a rumorset.Set; a message carries the sender's
// rumor IDs, ascending, in its IDs field and is charged their summary
// encoding on top. Per-node scratch keeps the round allocation-light.
type setLedger struct {
	net     *phonecall.Network
	set     *rumorset.Set
	scratch []setBufs
}

type setBufs struct {
	ids    []rumorset.ID      // AppendHeld scratch
	intent []phonecall.NodeID // IDs of the node's intent message
	resp   []phonecall.NodeID // IDs of the node's response message
	merge  []rumorset.ID      // deliver-side decode scratch
}

func newSetLedger(net *phonecall.Network, window int) (*setLedger, error) {
	set, err := rumorset.New(net.N(), window)
	if err != nil {
		return nil, err
	}
	return &setLedger{net: net, set: set, scratch: make([]setBufs, net.N())}, nil
}

func (l *setLedger) held(i int, resp bool) (uint64, []phonecall.NodeID, int, int) {
	b := &l.scratch[i]
	b.ids = l.set.AppendHeld(b.ids[:0], i)
	if len(b.ids) == 0 {
		return 0, nil, 0, 0
	}
	out := &b.intent
	if resp {
		out = &b.resp
	}
	wire := (*out)[:0]
	for _, id := range b.ids {
		wire = append(wire, phonecall.NodeID(id))
	}
	*out = wire
	return 0, wire, len(b.ids), rumorset.SummarySize(b.ids) * 8
}

func (l *setLedger) holdsAll(i int) bool { return l.set.HeldCount(i) == l.set.Active() }

// merge marks every carried ID; IDs retired while the message was in flight
// are unknown to the set and dropped (the slot-reuse ABA guard).
func (l *setLedger) merge(i int, inbox []phonecall.Message) {
	b := &l.scratch[i]
	b.merge = b.merge[:0]
	for _, m := range inbox {
		if m.Tag != tagRumorSet {
			continue
		}
		for _, id := range m.IDs {
			b.merge = append(b.merge, rumorset.ID(id))
		}
	}
	if len(b.merge) > 0 {
		l.set.MarkIDs(i, b.merge)
	}
}

func (l *setLedger) inject(node int, id rumorset.ID) error { return l.set.Inject(node, id) }

func (l *setLedger) fail(nodes []int) {
	l.set.Fail(nodes...)
	l.net.Fail(nodes...)
}

func (l *setLedger) revive(nodes []int) {
	l.set.Revive(nodes...)
	l.net.Revive(nodes...)
}

func (l *setLedger) activeIDs(dst []rumorset.ID) []rumorset.ID { return l.set.ActiveIDs(dst) }
func (l *setLedger) liveInformed(id rumorset.ID) int           { return l.set.LiveInformed(id) }

func (l *setLedger) retire(ids []rumorset.ID) bool {
	l.set.Retire(ids...)
	return true
}

func (l *setLedger) lost() int64                      { return l.set.Snapshot().Lost }
func (l *setLedger) expired() int64                   { return l.set.Snapshot().Expired }
func (l *setLedger) tracker() *phonecall.RumorTracker { return nil }

// newLedger picks the scenario's holdings format: the rumor set when the
// scenario is Wide, with a window of MaxInFlight or, when that is 0, one slot
// per distinct injected rumor; the bitmask otherwise.
func newLedger(sc Scenario, net *phonecall.Network) (ledger, error) {
	if !sc.Wide() {
		return &maskLedger{tr: phonecall.NewRumorTracker(net)}, nil
	}
	window := sc.MaxInFlight
	if window == 0 {
		window = distinctRumors(sc.Events)
	}
	l, err := newSetLedger(net, window)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return l, nil
}
