// Package obs is the observability plane of the reproduction: a
// virtual-time flight recorder (Tracer), a unified metrics registry
// (Registry) and an emulation-accuracy probe (Probe).
//
// The three pieces share one design constraint: the §4.1 emulation loop is
// allocation-free and runs every period on every Emulation Manager, so
// enabled-path observability must not allocate and disabled-path
// observability must vanish. The Tracer is a fixed-size ring of typed
// value events — recording overwrites a slot, never allocates — and every
// Record call is nil-receiver safe, so a deployment without tracing pays
// one inlined nil check per hook. The Registry hands out counter pointers
// once at deployment; the hot path increments through the pointer and
// never touches a map. The Probe re-solves the deployment with a fresh
// core.AllocState only on sampled periods, so its allocations stay off
// the steady-state path by construction.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// Kind is the type of one flight-recorder event.
type Kind uint8

// The event taxonomy. Solve events bracket the §4.1 sharing-model passes;
// Publish/Receive are the dissemination boundary; TCALApply is one
// enforced shaping change; the Link/Node kinds mirror the live-topology
// event kinds; ManagerKill/ManagerRestart and Suspect/Recover are the
// failure-injection plane; Probe is one accuracy-probe sample.
const (
	// KindSolveStart marks the start of one emulation loop's allocator
	// passes. A is the flow count entering the solver.
	KindSolveStart Kind = iota + 1
	// KindSolveEnd marks the end of the allocator passes. A is the flow
	// count, B the wall-clock nanoseconds both passes took.
	KindSolveEnd
	// KindPublish is one local report handed to the dissemination node.
	// A is the number of flow records published.
	KindPublish
	// KindReceive is one control datagram delivered to a manager. A is
	// the datagram's byte length.
	KindReceive
	// KindTCALApply is one enforced bandwidth change. A is the new rate
	// in bits per second, B the destination IP packed by PackIP.
	KindTCALApply
	// KindLinkFail / KindLinkHeal / KindLinkSet mirror the topology
	// link events; A and B carry the endpoint names packed by PackName.
	KindLinkFail
	KindLinkHeal
	KindLinkSet
	// KindNodeLeave / KindNodeJoin mirror the topology node events; A
	// carries the node name packed by PackName.
	KindNodeLeave
	KindNodeJoin
	// KindManagerKill / KindManagerRestart record failure injection on
	// the Emulation Manager of Host.
	KindManagerKill
	KindManagerRestart
	// KindSuspect / KindRecover record the dissemination failure
	// detector's transitions: Host suspected peer A dead / re-admitted
	// peer A.
	KindSuspect
	KindRecover
	// KindProbe is one accuracy-probe sample: A is the mean and B the
	// max observed-vs-oracle share deviation, in parts per million.
	KindProbe
	// The chaos fault-injection plane (internal/chaos). Per-fault events
	// record the datagram they hit: Host is the sender, A the receiver,
	// and B carries the fault-specific argument (added latency in
	// nanoseconds for reorder/delay, flipped bit count for corrupt,
	// burst size for duplicate). Per-action events record schedule steps:
	// partition/heal carry the two endpoints in A and B (-1 = wildcard),
	// profile marks a fault-profile change on the whole fabric (Host is
	// -1).
	KindChaosDrop
	KindChaosDuplicate
	KindChaosReorder
	KindChaosCorrupt
	KindChaosDelay
	KindChaosPartition
	KindChaosHeal
	KindChaosProfile
)

// String returns the snake_case name used in the Chrome trace export.
func (k Kind) String() string {
	switch k {
	case KindSolveStart:
		return "solve_start"
	case KindSolveEnd:
		return "solve_end"
	case KindPublish:
		return "publish"
	case KindReceive:
		return "receive"
	case KindTCALApply:
		return "tcal_apply"
	case KindLinkFail:
		return "link_fail"
	case KindLinkHeal:
		return "link_heal"
	case KindLinkSet:
		return "link_set"
	case KindNodeLeave:
		return "node_leave"
	case KindNodeJoin:
		return "node_join"
	case KindManagerKill:
		return "manager_kill"
	case KindManagerRestart:
		return "manager_restart"
	case KindSuspect:
		return "suspect"
	case KindRecover:
		return "recover"
	case KindProbe:
		return "probe"
	case KindChaosDrop:
		return "chaos_drop"
	case KindChaosDuplicate:
		return "chaos_duplicate"
	case KindChaosReorder:
		return "chaos_reorder"
	case KindChaosCorrupt:
		return "chaos_corrupt"
	case KindChaosDelay:
		return "chaos_delay"
	case KindChaosPartition:
		return "chaos_partition"
	case KindChaosHeal:
		return "chaos_heal"
	case KindChaosProfile:
		return "chaos_profile"
	}
	return fmt.Sprintf("kind_%d", uint8(k))
}

// Event is one flight-recorder entry: a fixed-size value, so the ring
// never allocates. At is virtual time; Host is the Emulation Manager the
// event happened on (-1 for deployment-level events); A and B are
// kind-specific arguments (see the Kind constants).
type Event struct {
	At   time.Duration
	A, B int64
	Host int32
	Kind Kind
}

// Tracer is the flight recorder: a fixed-size ring buffer of Events.
// Recording into a full ring overwrites the oldest entry, so a tracer
// holds the most recent window of a run — sized so that a failure leaves
// the events that led up to it in the buffer.
//
// A nil *Tracer is the disabled recorder: Record on it is a no-op whose
// cost is one inlined nil check, so call sites need no guards. The ring
// is guarded by an internal mutex because the public API hands the
// tracer to callers, who may export it from another goroutine while the
// simulation records; an uncontended Lock/Unlock pair is a few
// nanoseconds and allocates nothing, so Record stays inside the hot
// loop's 0-alloc budget.
type Tracer struct {
	mu   sync.Mutex
	ev   []Event
	head uint64 // total events ever recorded
	mask uint64 // immutable after NewTracer
}

// DefaultTraceEvents is the ring capacity NewTracer uses for capacity<=0.
const DefaultTraceEvents = 1 << 16

// NewTracer builds a flight recorder holding the most recent capacity
// events (rounded up to a power of two; <=0 selects DefaultTraceEvents).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Tracer{ev: make([]Event, c), mask: uint64(c - 1)}
}

// Record appends one event. It never allocates — it runs inside the
// emulation loop's 0-alloc budget — and on a nil tracer it is a no-op.
func (t *Tracer) Record(at time.Duration, kind Kind, host int32, a, b int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ev[t.head&t.mask] = Event{At: at, Kind: kind, Host: host, A: a, B: b}
	t.head++
	t.mu.Unlock()
}

// Len returns the number of events currently held (at most the ring's
// capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lenLocked()
}

// lenLocked is Len's body; the caller holds t.mu.
func (t *Tracer) lenLocked() int {
	if t.head < uint64(len(t.ev)) {
		return int(t.head)
	}
	return len(t.ev)
}

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.head <= uint64(len(t.ev)) {
		return 0
	}
	return int64(t.head - uint64(len(t.ev)))
}

// Events appends the held events to buf in chronological order and
// returns it. The copy is taken under the ring lock, so exporting while
// the simulation records sees a consistent prefix.
func (t *Tracer) Events(buf []Event) []Event {
	if t == nil {
		return buf
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(t.lenLocked())
	for i := t.head - n; i < t.head; i++ {
		buf = append(buf, t.ev[i&t.mask])
	}
	return buf
}

// PackName packs the first 8 bytes of a topology name into an int64 so
// link/node events can carry endpoint names without allocating.
func PackName(s string) int64 {
	var v uint64
	n := len(s)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(s[i])
	}
	return int64(v)
}

// UnpackName reverses PackName (names longer than 8 bytes come back
// truncated).
func UnpackName(v int64) string {
	var b [8]byte
	i := len(b)
	u := uint64(v)
	for u > 0 && i > 0 {
		i--
		b[i] = byte(u)
		u >>= 8
	}
	return string(b[i:])
}

// PackIP packs a 4-byte IP into an event argument.
func PackIP(ip [4]byte) int64 {
	return int64(uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3]))
}

// UnpackIP reverses PackIP.
func UnpackIP(v int64) [4]byte {
	u := uint32(v)
	return [4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}
}

// runtimePID is the Chrome-trace process id used for deployment-level
// events (Host < 0): topology mutations and probe samples.
const runtimePID = 9999

// WriteChrome exports the held events in Chrome trace_event format
// (load with chrome://tracing or https://ui.perfetto.dev). Timestamps
// are *virtual* microseconds; each manager is one process row. Solve
// passes become complete ("X") slices whose duration is the measured
// wall-clock solver time — the only wall-clock quantity in the file,
// which makes solver cost visible against the virtual timeline. Failure
// injection (manager kill/restart), suspicion transitions and topology
// mutations are instant ("i") events; probe samples are counter ("C")
// tracks.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	pids := map[int32]bool{}
	pid := func(host int32) int32 {
		if host < 0 {
			host = runtimePID
		}
		if !pids[host] {
			pids[host] = true
			name := fmt.Sprintf("manager-%d", host)
			if host == runtimePID {
				name = "runtime"
			}
			emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, host, name)
		}
		return host
	}
	for _, e := range t.Events(nil) {
		ts := e.At.Microseconds()
		switch e.Kind {
		case KindSolveStart:
			// The paired SolveEnd carries the same virtual timestamp
			// (virtual time does not advance inside an engine callback),
			// so the slice is emitted from the end event alone.
		case KindSolveEnd:
			dur := e.B / 1000
			if dur < 1 {
				dur = 1
			}
			emit(`{"name":"solve","cat":"solver","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":0,"args":{"flows":%d,"wall_ns":%d}}`,
				ts, dur, pid(e.Host), e.A, e.B)
		case KindPublish:
			emit(`{"name":"publish","cat":"dissem","ph":"i","s":"t","ts":%d,"pid":%d,"tid":0,"args":{"records":%d}}`,
				ts, pid(e.Host), e.A)
		case KindReceive:
			emit(`{"name":"receive","cat":"dissem","ph":"i","s":"t","ts":%d,"pid":%d,"tid":0,"args":{"bytes":%d}}`,
				ts, pid(e.Host), e.A)
		case KindTCALApply:
			ip := UnpackIP(e.B)
			emit(`{"name":"tcal-apply","cat":"enforce","ph":"i","s":"t","ts":%d,"pid":%d,"tid":0,"args":{"bps":%d,"dst":"%d.%d.%d.%d"}}`,
				ts, pid(e.Host), e.A, ip[0], ip[1], ip[2], ip[3])
		case KindLinkFail, KindLinkHeal, KindLinkSet:
			emit(`{"name":%q,"cat":"topology","ph":"i","s":"g","ts":%d,"pid":%d,"tid":0,"args":{"orig":%q,"dest":%q}}`,
				e.Kind.String(), ts, pid(e.Host), UnpackName(e.A), UnpackName(e.B))
		case KindNodeLeave, KindNodeJoin:
			emit(`{"name":%q,"cat":"topology","ph":"i","s":"g","ts":%d,"pid":%d,"tid":0,"args":{"node":%q}}`,
				e.Kind.String(), ts, pid(e.Host), UnpackName(e.A))
		case KindManagerKill:
			emit(`{"name":"manager-kill","cat":"failure","ph":"i","s":"g","ts":%d,"pid":%d,"tid":0}`, ts, pid(e.Host))
		case KindManagerRestart:
			emit(`{"name":"manager-restart","cat":"failure","ph":"i","s":"g","ts":%d,"pid":%d,"tid":0}`, ts, pid(e.Host))
		case KindSuspect:
			emit(`{"name":"suspect","cat":"failure","ph":"i","s":"p","ts":%d,"pid":%d,"tid":0,"args":{"peer":%d}}`,
				ts, pid(e.Host), e.A)
		case KindRecover:
			emit(`{"name":"recover","cat":"failure","ph":"i","s":"p","ts":%d,"pid":%d,"tid":0,"args":{"peer":%d}}`,
				ts, pid(e.Host), e.A)
		case KindProbe:
			emit(`{"name":"share-deviation","ph":"C","ts":%d,"pid":%d,"tid":0,"args":{"mean_ppm":%d,"max_ppm":%d}}`,
				ts, pid(e.Host), e.A, e.B)
		case KindChaosDrop, KindChaosDuplicate, KindChaosReorder, KindChaosCorrupt,
			KindChaosDelay, KindChaosPartition, KindChaosHeal, KindChaosProfile:
			emit(`{"name":%q,"cat":"chaos","ph":"i","s":"p","ts":%d,"pid":%d,"tid":0,"args":{"a":%d,"b":%d}}`,
				e.Kind.String(), ts, pid(e.Host), e.A, e.B)
		default:
			emit(`{"name":%q,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":0,"args":{"a":%d,"b":%d}}`,
				e.Kind.String(), ts, pid(e.Host), e.A, e.B)
		}
	}
	fmt.Fprint(bw, "]}")
	return bw.Flush()
}
