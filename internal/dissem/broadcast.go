package dissem

import (
	"time"

	"repro/internal/metadata"
	"repro/internal/wire"
)

// broadcastNode is the paper's §4.2 exchange, extracted unchanged from the
// original Emulation Manager: each period the full local report is encoded
// once with the paper's wire format and unicast to every peer; the view is
// simply the latest report from each peer, expiring after maxAge.
//
// Failure model: Broadcast is the one strategy that needs no suspicion
// (Config.SuspectAfter is ignored) — it holds no per-peer protocol state
// beyond the view itself, so a dead manager simply ages out after maxAge
// and a restarted one reappears with its first report.
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
}

func newBroadcastNode(cfg Config, host int, tr Transport) *broadcastNode {
	return &broadcastNode{
		endpoint: endpoint{cfg: cfg, host: host, tr: tr},
		remote:   make([]broadcastEntry, cfg.NumHosts),
	}
}

func (n *broadcastNode) Publish(now time.Duration, msg *metadata.Message) {
	if msg == nil || n.cfg.NumHosts < 2 {
		return
	}
	n.raw = metadata.AppendEncode(n.raw[:0], msg, n.cfg.Wide)
	for h := 0; h < n.cfg.NumHosts; h++ {
		if h != n.host {
			n.stats.send(n.tr, h, n.raw)
		}
	}
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
	// AppendRemoteFlows drops the entry, clearing the sequence state a
	// cold-restarted sender would otherwise have to outrun.
	e := &n.remote[from]
	if e.held && !seqFresh(e.seq, seq) {
		return
	}
	n.in, *e = *e, n.in
	e.held, e.at, e.seq = true, now, seq
}

func (n *broadcastNode) RemoteFlows(now, maxAge time.Duration) []RemoteFlow {
	return n.AppendRemoteFlows(now, maxAge, nil)
}

// AppendRemoteFlows is on the emulation loop's 0-alloc hot path
// (BenchmarkIterate runs the Broadcast node): entries append into the
// caller's buffer.
func (n *broadcastNode) AppendRemoteFlows(now, maxAge time.Duration, out []RemoteFlow) []RemoteFlow {
	for h := range n.remote {
		e := &n.remote[h]
		if !e.held {
			continue
		}
		age := now - e.at
		if age > maxAge {
			e.held = false
			continue
		}
		for _, f := range e.msg.Flows {
			out = append(out, RemoteFlow{
				Origin: wire.U16(h, nil),
				BPS:    f.BPS,
				Count:  1,
				Links:  f.Links,
				Age:    age,
			})
			n.stats.staleness(age)
		}
	}
	return out
}
