// Package apps implements the evaluation workloads of §5: iperf3-style
// bulk flows, ping, an HTTP server with wrk2-style (keep-alive) and
// curl-style (connection-per-request) clients, a memcached/memtier-style
// key-value benchmark, a Cassandra/YCSB-style geo-replicated store, and
// the BFT-SMaRt/Wheat state-machine-replication protocols.
//
// All workloads run over transport stacks, so the same application code
// drives the bare-metal fabric, the Kollaps runtime and the baseline
// emulators — exactly how the paper runs unmodified binaries everywhere.
package apps

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
)

// IperfServer accepts bulk flows and accounts received bytes.
type IperfServer struct {
	// Received is the total payload received across all connections.
	Received int64
	// Series samples throughput (bits/s) once per second when enabled.
	Series *metrics.TimeSeries
}

// NewIperfServer starts an iperf server on the stack's given port.
func NewIperfServer(eng *sim.Engine, st *transport.Stack, port uint16, sampler bool) *IperfServer {
	s := &IperfServer{}
	if sampler {
		s.Series = &metrics.TimeSeries{Name: "iperf-throughput"}
		last := int64(0)
		eng.Every(time.Second, func() {
			s.Series.Add(eng.Now(), float64(s.Received-last)*8)
			last = s.Received
		})
	}
	st.Listen(port, &transport.Listener{OnAccept: func(c *transport.Conn) {
		c.OnData = func(n int) { s.Received += int64(n) }
	}})
	return s
}

// IperfClient drives one greedy bulk flow.
type IperfClient struct {
	Conn *transport.Conn
}

// NewIperfClient dials the server and keeps the connection saturated.
func NewIperfClient(eng *sim.Engine, st *transport.Stack, dst packet.IP, port uint16, cc transport.CongestionControl) *IperfClient {
	cl := &IperfClient{}
	cl.Conn = st.Dial(dst, port, cc)
	cl.Conn.Write(1 << 28)
	// Top the buffer back up to 256 MiB every 100ms — enough headroom to
	// saturate multi-Gb/s shaped paths.
	eng.Every(100*time.Millisecond, func() {
		if !cl.Conn.Closed() {
			if have := cl.Conn.Buffered(); have < 1<<28 {
				cl.Conn.Write(int(1<<28 - have))
			}
		}
	})
	return cl
}

// Pinger issues ICMP echoes at an interval and collects RTT statistics.
type Pinger struct {
	// RTTs collects round-trip samples in milliseconds.
	RTTs metrics.Histogram
	// Sent and Lost count requests and missing replies at Stop time.
	Sent int
	stop sim.Timer
}

// NewPinger starts pinging dst every interval; a non-positive interval,
// which Engine.Every would panic on, pings every millisecond.
func NewPinger(eng *sim.Engine, st *transport.Stack, dst packet.IP, interval time.Duration) *Pinger {
	p := &Pinger{}
	if interval <= 0 {
		interval = time.Millisecond
	}
	p.stop = eng.Every(interval, func() {
		p.Sent++
		st.Ping(dst, 64, func(rtt time.Duration) {
			p.RTTs.AddDuration(rtt)
		})
	})
	return p
}

// Stop ends the ping train.
func (p *Pinger) Stop() { p.stop.Stop() }

// Lost reports requests without replies so far.
func (p *Pinger) Lost() int { return p.Sent - p.RTTs.Count() }

// HTTPServer answers fixed-size requests with fixed-size responses over
// persistent or short-lived connections. Framing is by byte count: every
// ReqSize received bytes on a connection is one request.
type HTTPServer struct {
	// ReqSize and RespSize frame the protocol (bytes).
	ReqSize, RespSize int
	// Requests counts completed requests.
	Requests int64
	// BytesOut counts response payload bytes written.
	BytesOut int64
}

// NewHTTPServer listens on the stack's port.
func NewHTTPServer(st *transport.Stack, port uint16, reqSize, respSize int) *HTTPServer {
	s := &HTTPServer{ReqSize: reqSize, RespSize: respSize}
	st.Listen(port, &transport.Listener{OnAccept: func(c *transport.Conn) {
		pending := 0
		c.OnData = func(n int) {
			pending += n
			for pending >= s.ReqSize {
				pending -= s.ReqSize
				s.Requests++
				s.BytesOut += int64(s.RespSize)
				c.Write(s.RespSize)
			}
		}
		c.OnClose = func() { c.Close() }
	}})
	return s
}

// WrkClient is the wrk2-style load generator: a set of persistent
// connections each running a closed loop of requests.
type WrkClient struct {
	// Completed counts requests with full responses.
	Completed int64
	// Latencies records request latencies (ms).
	Latencies metrics.Histogram
	// BytesIn counts received response bytes.
	BytesIn int64

	eng      *sim.Engine
	reqSize  int
	respSize int
	stopped  bool
}

// NewWrkClient opens conns connections to the server and starts the
// closed loops.
func NewWrkClient(eng *sim.Engine, st *transport.Stack, dst packet.IP, port uint16,
	conns, reqSize, respSize int, cc transport.CongestionControl) *WrkClient {
	w := &WrkClient{eng: eng, reqSize: reqSize, respSize: respSize}
	for i := 0; i < conns; i++ {
		conn := st.Dial(dst, port, cc)
		w.runLoop(conn)
	}
	return w
}

func (w *WrkClient) runLoop(conn *transport.Conn) {
	var issuedAt time.Duration
	received := 0
	issue := func() {
		if w.stopped || conn.Closed() {
			return
		}
		issuedAt = w.eng.Now()
		received = 0
		conn.Write(w.reqSize)
	}
	conn.OnConnected = issue
	conn.OnData = func(n int) {
		if w.stopped {
			return
		}
		received += n
		w.BytesIn += int64(n)
		for received >= w.respSize {
			received -= w.respSize
			w.Completed++
			w.Latencies.AddDuration(w.eng.Now() - issuedAt)
			issue()
		}
	}
}

// Stop halts issuing further requests.
func (w *WrkClient) Stop() { w.stopped = true }

// CurlClient issues sequential requests, each on a fresh connection —
// the short-connection workload of Figure 6.
type CurlClient struct {
	// Completed counts full responses.
	Completed int64
	// BytesIn counts received payload bytes.
	BytesIn int64
	// Latencies records per-request latencies (ms) including the
	// connection handshake.
	Latencies metrics.Histogram

	eng      *sim.Engine
	st       *transport.Stack
	dst      packet.IP
	port     uint16
	reqSize  int
	respSize int
	cc       transport.CongestionControl
}

// NewCurlClient starts the request loop immediately.
func NewCurlClient(eng *sim.Engine, st *transport.Stack, dst packet.IP, port uint16,
	reqSize, respSize int, cc transport.CongestionControl) *CurlClient {
	c := &CurlClient{eng: eng, st: st, dst: dst, port: port,
		reqSize: reqSize, respSize: respSize, cc: cc}
	c.next()
	return c
}

func (c *CurlClient) next() {
	start := c.eng.Now()
	conn := c.st.Dial(c.dst, c.port, c.cc)
	received := 0
	conn.OnConnected = func() { conn.Write(c.reqSize) }
	conn.OnData = func(n int) {
		received += n
		c.BytesIn += int64(n)
		if received >= c.respSize {
			c.Completed++
			c.Latencies.AddDuration(c.eng.Now() - start)
			conn.Close()
			c.next()
		}
	}
}
