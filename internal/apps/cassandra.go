package apps

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The Cassandra substitute (§5.6): a geo-replicated store with
// coordinator-based replication. The Figure 10 deployment is 4 replicas in
// Frankfurt and 4 in Sydney with replication factor 2 — every key has one
// replica in each region — and YCSB configured for QUORUM updates (both
// copies) and ONE reads (the local copy), 50/50 mix. What the experiment
// measures is quorum wait latency (bounded below by the inter-region RTT
// for updates) and coordinator saturation, which the model reproduces with
// per-op service-time queues and real message exchanges over the emulated
// network.

// Message types exchanged between YCSB clients, coordinators and replicas.
type cassMsg struct {
	kind string // "read", "update", "repl", "replAck", "readResp", "updateResp"
	id   int64
}

// Wire sizes (bytes) for the message kinds.
const (
	cassReadReq    = 100
	cassReadResp   = 1200
	cassUpdateReq  = 1200
	cassUpdateResp = 100
	cassRepl       = 1200
	cassReplAck    = 100
	cassPort       = 9042
)

// CassandraNode is one replica/coordinator process.
type CassandraNode struct {
	Name  string
	Stack *transport.Stack

	eng       *sim.Engine
	busyUntil time.Duration

	// peer is the replication target (the paired replica in the other
	// region under RF=2).
	peer        *transport.Conn
	pendingRepl map[int64]func()
	// Ops counts operations coordinated by this node.
	Ops int64
}

// cassServiceTime is a node's local per-operation processing cost: an
// in-memory write/read path.
const cassServiceTime = 250 * time.Microsecond

// NewCassandraNode starts a replica listening for client operations and
// peer replication.
func NewCassandraNode(eng *sim.Engine, st *transport.Stack, name string) *CassandraNode {
	n := &CassandraNode{
		Name: name, Stack: st, eng: eng,
		pendingRepl: make(map[int64]func()),
	}
	st.Listen(cassPort, &transport.Listener{OnAccept: func(c *transport.Conn) {
		c.OnMsg = func(meta any) { n.onMessage(c, meta.(*cassMsg)) }
	}})
	return n
}

// ConnectPeer establishes the replication link to the paired replica.
func (n *CassandraNode) ConnectPeer(peerIP packet.IP) {
	n.peer = n.Stack.Dial(peerIP, cassPort, transport.Cubic)
	n.peer.OnMsg = func(meta any) { n.onMessage(n.peer, meta.(*cassMsg)) }
}

// exec queues work through the node's service-time queue.
func (n *CassandraNode) exec(fn func()) {
	start := n.eng.Now()
	if n.busyUntil > start {
		start = n.busyUntil
	}
	finish := start + cassServiceTime
	n.busyUntil = finish
	n.eng.At(finish, fn)
}

func (n *CassandraNode) onMessage(c *transport.Conn, m *cassMsg) {
	switch m.kind {
	case "read":
		// ONE consistency: answer from the local copy.
		n.exec(func() {
			n.Ops++
			c.WriteMsg(cassReadResp, &cassMsg{kind: "readResp", id: m.id})
		})
	case "update":
		// QUORUM with RF=2: apply locally and wait for the remote ack.
		n.exec(func() {
			n.Ops++
			id := m.id
			n.pendingRepl[id] = func() {
				c.WriteMsg(cassUpdateResp, &cassMsg{kind: "updateResp", id: id})
			}
			n.peer.WriteMsg(cassRepl, &cassMsg{kind: "repl", id: id})
		})
	case "repl":
		n.exec(func() {
			c.WriteMsg(cassReplAck, &cassMsg{kind: "replAck", id: m.id})
		})
	case "replAck":
		if done, ok := n.pendingRepl[m.id]; ok {
			delete(n.pendingRepl, m.id)
			done()
		}
	}
}

// YCSBClient drives a Cassandra coordinator with a target throughput and a
// 50/50 read/update mix, recording per-kind latencies — the §5.6 workload.
type YCSBClient struct {
	// ReadLat and UpdateLat are latency histograms (ms).
	ReadLat, UpdateLat metrics.Histogram
	// Issued and Completed count operations.
	Issued, Completed int64

	eng     *sim.Engine
	conn    *transport.Conn
	pending map[int64]pendingOp
	nextID  int64
	flip    bool
}

type pendingOp struct {
	at     time.Duration
	update bool
}

// NewYCSBClient connects to the coordinator and issues ops at targetRate
// (ops/s) in an open loop, with at most maxOutstanding in flight (issue
// attempts beyond that are dropped, modelling YCSB's bounded thread pool).
func NewYCSBClient(eng *sim.Engine, st *transport.Stack, coord packet.IP, targetRate float64, maxOutstanding int) *YCSBClient {
	y := &YCSBClient{eng: eng, pending: make(map[int64]pendingOp)}
	y.conn = st.Dial(coord, cassPort, transport.Cubic)
	y.conn.OnMsg = func(meta any) { y.onResp(meta.(*cassMsg)) }
	if maxOutstanding <= 0 {
		maxOutstanding = 64
	}
	interval := time.Duration(float64(time.Second) / targetRate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	eng.Every(interval, func() {
		if len(y.pending) >= maxOutstanding {
			return
		}
		y.issue()
	})
	return y
}

func (y *YCSBClient) issue() {
	y.nextID++
	id := y.nextID
	y.Issued++
	y.flip = !y.flip
	if y.flip {
		y.pending[id] = pendingOp{at: y.eng.Now(), update: false}
		y.conn.WriteMsg(cassReadReq, &cassMsg{kind: "read", id: id})
	} else {
		y.pending[id] = pendingOp{at: y.eng.Now(), update: true}
		y.conn.WriteMsg(cassUpdateReq, &cassMsg{kind: "update", id: id})
	}
}

func (y *YCSBClient) onResp(m *cassMsg) {
	op, ok := y.pending[m.id]
	if !ok {
		return
	}
	delete(y.pending, m.id)
	y.Completed++
	lat := y.eng.Now() - op.at
	if op.update {
		y.UpdateLat.AddDuration(lat)
	} else {
		y.ReadLat.AddDuration(lat)
	}
}

// CassandraCluster wires the Figure 10 deployment: local/remote replica
// pairs plus YCSB clients against the local coordinators.
type CassandraCluster struct {
	Local, Remote []*CassandraNode
	Clients       []*YCSBClient
}

// StackProvider resolves a named container to its transport stack and IP —
// satisfied by the Kollaps runtime and by bare-metal test harnesses.
type StackProvider interface {
	AppStack(name string) (*transport.Stack, packet.IP, error)
}

// DeployCassandra builds nPairs replica pairs named local-i/remote-i and
// one YCSB client per pair (named ycsb-i) at the given per-client rate.
func DeployCassandra(eng *sim.Engine, p StackProvider, nPairs int, rate float64) (*CassandraCluster, error) {
	cl := &CassandraCluster{}
	type pair struct {
		l, r   *CassandraNode
		lIP    packet.IP
		rIP    packet.IP
		client packet.IP
	}
	pairs := make([]pair, nPairs)
	for i := 0; i < nPairs; i++ {
		ls, lip, err := p.AppStack(fmt.Sprintf("local-%d", i))
		if err != nil {
			return nil, err
		}
		rs, rip, err := p.AppStack(fmt.Sprintf("remote-%d", i))
		if err != nil {
			return nil, err
		}
		pairs[i] = pair{
			l:   NewCassandraNode(eng, ls, fmt.Sprintf("local-%d", i)),
			r:   NewCassandraNode(eng, rs, fmt.Sprintf("remote-%d", i)),
			lIP: lip, rIP: rip,
		}
	}
	for i := range pairs {
		pairs[i].l.ConnectPeer(pairs[i].rIP)
		pairs[i].r.ConnectPeer(pairs[i].lIP)
		cl.Local = append(cl.Local, pairs[i].l)
		cl.Remote = append(cl.Remote, pairs[i].r)
	}
	for i := 0; i < nPairs; i++ {
		ys, _, err := p.AppStack(fmt.Sprintf("ycsb-%d", i))
		if err != nil {
			return nil, err
		}
		cl.Clients = append(cl.Clients, NewYCSBClient(eng, ys, pairs[i].lIP, rate, 0))
	}
	return cl, nil
}

// Throughput returns completed ops across clients divided by the window.
func (c *CassandraCluster) Throughput(window time.Duration) float64 {
	var total int64
	for _, y := range c.Clients {
		total += y.Completed
	}
	return float64(total) / window.Seconds()
}
