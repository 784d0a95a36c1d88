package apps

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
)

// KVServer is the memcached substitute: a request/response server over
// persistent connections with a fixed per-operation service time (an
// M/D/1-style processing queue), so saturation behaviour matches an
// in-memory store.
type KVServer struct {
	// Ops counts completed operations.
	Ops int64

	eng       *sim.Engine
	busyUntil time.Duration
}

// The KV protocol.
const (
	// kvReqSize and kvRespSize are the wire payload sizes: a small key
	// and a ~1 KiB value.
	kvReqSize  = 64
	kvRespSize = 1100
	// kvServiceTime is the per-op processing cost.
	kvServiceTime = 20 * time.Microsecond
)

// NewKVServer starts the server on the stack's port.
func NewKVServer(eng *sim.Engine, st *transport.Stack, port uint16) *KVServer {
	s := &KVServer{eng: eng}
	st.Listen(port, &transport.Listener{OnAccept: func(c *transport.Conn) {
		pending := 0
		c.OnData = func(n int) {
			pending += n
			for pending >= kvReqSize {
				pending -= kvReqSize
				s.serve(c)
			}
		}
	}})
	return s
}

// serve queues one operation through the service-time queue and replies.
func (s *KVServer) serve(c *transport.Conn) {
	now := s.eng.Now()
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	finish := start + kvServiceTime
	s.busyUntil = finish
	s.eng.At(finish, func() {
		s.Ops++
		c.Write(kvRespSize)
	})
}

// MemtierClient is the memtier_benchmark substitute: a closed-loop client
// with a configurable number of connections, each issuing the next
// operation as soon as the previous completes.
type MemtierClient struct {
	// Completed counts finished operations.
	Completed int64
	// Latencies records operation latencies (ms).
	Latencies metrics.Histogram

	eng *sim.Engine
}

// NewMemtierClient opens conns connections and starts the loops.
func NewMemtierClient(eng *sim.Engine, st *transport.Stack, dst packet.IP, port uint16,
	conns int) *MemtierClient {
	m := &MemtierClient{eng: eng}
	for i := 0; i < conns; i++ {
		conn := st.Dial(dst, port, transport.Cubic)
		m.loop(conn)
	}
	return m
}

func (m *MemtierClient) loop(conn *transport.Conn) {
	var issuedAt time.Duration
	received := 0
	issue := func() {
		if conn.Closed() {
			return
		}
		issuedAt = m.eng.Now()
		conn.Write(kvReqSize)
	}
	conn.OnConnected = issue
	conn.OnData = func(n int) {
		received += n
		for received >= kvRespSize {
			received -= kvRespSize
			m.Completed++
			m.Latencies.AddDuration(m.eng.Now() - issuedAt)
			issue()
		}
	}
}
