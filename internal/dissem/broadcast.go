package dissem

import (
	"time"

	"repro/internal/metadata"
	"repro/internal/wire"
)

// broadcastNode is the paper's §4.2 exchange, extracted unchanged from the
// original Emulation Manager: each period the full local report is encoded
// once with the paper's wire format and unicast to every peer; the view is
// simply the latest report from each peer.
//
// Failure model: Broadcast is the one strategy that needs no suspicion
// (Config.SuspectAfter is ignored) — it holds no per-peer protocol state
// beyond the view itself, so a dead manager's report simply expires in
// Publish, ExpireAfter periods after it arrived, and a restarted one
// reappears with its first report.
type broadcastNode struct {
	endpoint

	remote []broadcastEntry // by peer host
	// in is where Receive decodes; a report that passes every check is
	// swapped with the peer's held one, whose storage decodes the next.
	in  broadcastEntry
	raw []byte // Publish's encoded report, sealed once per peer
}

type broadcastEntry struct {
	msg   metadata.Message
	links []uint16 // arena behind msg's link lists
	held  bool
	at    time.Duration // arrival (virtual) time
	seq   uint32        // envelope sequence the entry was stamped with
	shape uint64        // OriginView.Stamp of msg's flows
}

func newBroadcastNode(cfg Config, host int, tr Transport) *broadcastNode {
	n := &broadcastNode{
		endpoint: endpoint{cfg: cfg, host: host, tr: tr},
		remote:   make([]broadcastEntry, cfg.NumHosts),
	}
	n.appendView = n.AppendView
	return n
}

func (n *broadcastNode) Publish(now time.Duration, msg *metadata.Message) {
	if msg == nil || n.cfg.NumHosts < 2 {
		return
	}
	// Expire reports older than ExpireAfter periods (see Receive).
	horizon := n.horizon(now)
	for h := range n.remote {
		if e := &n.remote[h]; e.at < horizon {
			e.held = false
		}
	}
	n.raw = metadata.AppendEncode(n.raw[:0], msg, n.cfg.Wide)
	for h := 0; h < n.cfg.NumHosts; h++ {
		if h != n.host {
			n.stats.post(n.tr, h, n.raw)
		}
	}
	n.stats.sent(n.cfg.NumHosts-1, len(n.raw))
}

func (n *broadcastNode) Receive(now time.Duration, payload []byte) {
	inner, seq, ok := n.stats.open(payload)
	if !ok {
		return
	}
	links, err := metadata.DecodeInto(&n.in.msg, n.in.links[:0], inner, n.cfg.Wide)
	n.in.links = links
	if err != nil {
		n.stats.BadDatagram.Inc()
		return // corrupted reports are ignored, next period repairs
	}
	from := int(n.in.msg.Host)
	if from >= n.cfg.NumHosts || from == n.host {
		n.stats.BadDatagram.Inc()
		return // corrupted sender id: no phantom peers in the view
	}
	// Duplicate or reordered-stale copy of a report already held: the
	// held entry wins, so a duplicated datagram cannot refresh `at` and a
	// displaced old report cannot roll the view backwards. Expiry in
	// Publish drops the entry, clearing the sequence state a
	// cold-restarted sender would otherwise have to outrun.
	e := &n.remote[from]
	if e.held && !seqFresh(e.seq, seq) {
		return
	}
	held, shape := e.held, e.shape
	n.in, *e = *e, n.in
	// The report replaced is in n.in until the next Receive decodes over
	// it. A new stamp only when the paths moved: most reports repeat the
	// last one's paths with fresh usage.
	if !held || !sameShape(e.msg.Flows, n.in.msg.Flows) {
		shape = n.newStamp()
	}
	e.held, e.at, e.seq, e.shape = true, now, seq, shape
}

// AppendView is on the emulation loop's 0-alloc hot path
// (BenchmarkIterate runs the Broadcast node): blocks append into the
// caller's buffer.
func (n *broadcastNode) AppendView(now, maxAge time.Duration, out []OriginView) []OriginView {
	for h := range n.remote {
		if e := &n.remote[h]; e.held && now-e.at <= maxAge {
			out = append(out, OriginView{Origin: wire.U16(h, nil), Age: now - e.at, Stamp: e.shape, recs: e.msg.Flows})
		}
	}
	return out
}
