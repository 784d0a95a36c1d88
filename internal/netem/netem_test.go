package netem

import (
	"math"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func mkPacket(size int) *packet.Packet {
	return &packet.Packet{Size: size, Dst: packet.MakeIP(0, 1, 1)}
}

func TestTokenBucketRate(t *testing.T) {
	eng := sim.NewEngine(1)
	var delivered int64
	tb := NewTokenBucket(eng, 8*units.Mbps, func(p *packet.Packet) { delivered += int64(p.Size) })
	// Offer 2 MB/s, paced, for one second; only ~1 MB/s (8 Mb/s) passes.
	for i := 0; i < 2000; i++ {
		at := time.Duration(i) * 500 * time.Microsecond
		eng.At(at, func() { tb.Enqueue(mkPacket(1000)) })
	}
	eng.Run(time.Second)
	// 8 Mb/s = 1 MB/s, plus the initial burst (~1 MTU + 2ms of rate).
	rate := float64(delivered)
	if rate < 0.9e6 || rate > 1.2e6 {
		t.Fatalf("delivered %v bytes in 1s at 8Mbps, want ~1e6", delivered)
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	eng := sim.NewEngine(1)
	n := 0
	tb := NewTokenBucket(eng, 0, func(p *packet.Packet) { n++ })
	for i := 0; i < 100; i++ {
		tb.Enqueue(mkPacket(1500))
	}
	if n != 100 {
		t.Fatalf("unlimited bucket delivered %d/100 synchronously", n)
	}
}

func TestTokenBucketTailDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := NewTokenBucket(eng, 8*units.Kbps, func(p *packet.Packet) {}) // 1 KB/s, 16KB queue
	for i := 0; i < 100; i++ {
		tb.Enqueue(mkPacket(1500)) // 150 KB offered instantly
	}
	if tb.Dropped == 0 {
		t.Fatal("expected tail drops on a saturated queue")
	}
	if tb.Backlog() > 17*1024 {
		t.Fatalf("backlog %d exceeds limit", tb.Backlog())
	}
}

func TestTokenBucketKeepsOrderAndCounts(t *testing.T) {
	eng := sim.NewEngine(1)
	var order []int
	tb := NewTokenBucket(eng, 1*units.Mbps, func(p *packet.Packet) { order = append(order, p.Size) })
	for i := 1; i <= 5; i++ {
		tb.Enqueue(mkPacket(i * 100))
	}
	eng.Run(time.Second)
	if len(order) != 5 {
		t.Fatalf("delivered %d/5", len(order))
	}
	for i := 1; i <= 5; i++ {
		if order[i-1] != i*100 {
			t.Fatalf("order violated: %v", order)
		}
	}
	if tb.SentPackets != 5 || tb.SentBytes != 1500 {
		t.Fatalf("counters: %d pkts, %d bytes", tb.SentPackets, tb.SentBytes)
	}
}

func TestTokenBucketSetRate(t *testing.T) {
	eng := sim.NewEngine(1)
	var delivered int64
	tb := NewTokenBucket(eng, 8*units.Mbps, func(p *packet.Packet) { delivered += int64(p.Size) })
	feed := func(from time.Duration) {
		for i := 0; i < 4000; i++ {
			at := from + time.Duration(i)*250*time.Microsecond
			eng.At(at, func() { tb.Enqueue(mkPacket(1000)) })
		}
	}
	feed(0)
	eng.Run(time.Second)
	first := delivered
	// Double the rate; second second should deliver roughly twice as much.
	tb.SetRate(16 * units.Mbps)
	feed(time.Second)
	eng.Run(2 * time.Second)
	second := delivered - first
	if float64(second) < 1.7*float64(first) {
		t.Fatalf("rate change ineffective: first=%d second=%d", first, second)
	}
}

func TestNetemDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	var at time.Duration
	ne := NewNetem(eng, 10*time.Millisecond, 0, 0, func(p *packet.Packet) { at = eng.Now() })
	ne.Enqueue(mkPacket(100))
	eng.RunAll()
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
}

func TestNetemJitterDistribution(t *testing.T) {
	eng := sim.NewEngine(42)
	var times []time.Duration
	mean := 50 * time.Millisecond
	sd := 5 * time.Millisecond
	ne := NewNetem(eng, mean, sd, 0, func(p *packet.Packet) { times = append(times, eng.Now()) })
	const n = 2000
	for i := 0; i < n; i++ {
		// Space arrivals out so ordering clamp doesn't distort samples.
		d := time.Duration(i) * 100 * time.Millisecond
		eng.At(d, func() { ne.Enqueue(mkPacket(100)) })
	}
	eng.RunAll()
	if len(times) != n {
		t.Fatalf("delivered %d/%d", len(times), n)
	}
	var sum, ss float64
	var samples []float64
	for i, at := range times {
		base := time.Duration(i) * 100 * time.Millisecond
		d := float64(at-base) / float64(time.Millisecond)
		samples = append(samples, d)
		sum += d
	}
	m := sum / n
	for _, d := range samples {
		ss += (d - m) * (d - m)
	}
	got := math.Sqrt(ss / n)
	if math.Abs(m-50) > 0.5 {
		t.Errorf("mean delay = %.2fms, want ~50", m)
	}
	if math.Abs(got-5) > 0.5 {
		t.Errorf("jitter sd = %.2fms, want ~5", got)
	}
}

func TestNetemLossRate(t *testing.T) {
	eng := sim.NewEngine(7)
	delivered := 0
	ne := NewNetem(eng, time.Millisecond, 0, 0.3, func(p *packet.Packet) { delivered++ })
	const n = 10000
	for i := 0; i < n; i++ {
		ne.Enqueue(mkPacket(100))
	}
	eng.RunAll()
	got := float64(n-delivered) / n
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("loss = %.3f, want ~0.30", got)
	}
	if ne.LostPackets != int64(n-delivered) {
		t.Fatalf("LostPackets counter mismatch")
	}
}

func TestNetemOrderingPreserved(t *testing.T) {
	eng := sim.NewEngine(3)
	var got []int
	ne := NewNetem(eng, 20*time.Millisecond, 15*time.Millisecond, 0, func(p *packet.Packet) { got = append(got, p.Size) })
	for i := 0; i < 200; i++ {
		i := i
		eng.At(time.Duration(i)*time.Millisecond, func() {
			p := mkPacket(i + 1)
			ne.Enqueue(p)
		})
	}
	eng.RunAll()
	if len(got) != 200 {
		t.Fatalf("delivered %d/200", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("reordering at %d: %d after %d", i, got[i], got[i-1])
		}
	}
}

// TestNetemHopShiftsEveryExit: a stage with a hop delivers every packet
// of a jittered, clamped stream exactly hop later than the same stage
// without one, in the same order, and Delay leaves the hop out.
func TestNetemHopShiftsEveryExit(t *testing.T) {
	const hop = 20 * time.Microsecond
	run := func(hop time.Duration) (exits []time.Duration, sizes []int) {
		eng := sim.NewEngine(3)
		ne := NewNetem(eng, 5*time.Millisecond, 4*time.Millisecond, 0, func(p *packet.Packet) {
			exits, sizes = append(exits, eng.Now()), append(sizes, p.Size)
		})
		ne.SetHop(hop)
		if ne.Delay() != 5*time.Millisecond {
			t.Fatalf("Delay = %v with a hop, want the configured 5ms", ne.Delay())
		}
		for i := 0; i < 200; i++ {
			i := i
			eng.At(time.Duration(i)*100*time.Microsecond, func() { ne.Enqueue(mkPacket(i + 1)) })
		}
		eng.RunAll()
		return exits, sizes
	}
	base, order := run(0)
	got, gotOrder := run(hop)
	if len(base) != 200 || len(got) != 200 {
		t.Fatalf("delivered %d and %d of 200", len(base), len(got))
	}
	clamped := 0
	for i := range got {
		if got[i] != base[i]+hop || gotOrder[i] != order[i] || order[i] != i+1 {
			t.Fatalf("packet %d: exit %v (size %d), want %v (size %d)", i, got[i], gotOrder[i], base[i]+hop, order[i])
		}
		if i > 0 && base[i] == base[i-1] {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("no exit was clamped to its predecessor's; the test needs some")
	}
}

func TestNetemSetRuntime(t *testing.T) {
	eng := sim.NewEngine(1)
	var at time.Duration
	ne := NewNetem(eng, 10*time.Millisecond, 0, 0, func(p *packet.Packet) { at = eng.Now() })
	ne.Set(30*time.Millisecond, 0, 0)
	if ne.Delay() != 30*time.Millisecond {
		t.Fatal("Set did not update delay")
	}
	ne.Enqueue(mkPacket(1))
	eng.RunAll()
	if at != 30*time.Millisecond {
		t.Fatalf("delivered at %v after Set, want 30ms", at)
	}
}

func TestChain(t *testing.T) {
	eng := sim.NewEngine(1)
	var delivered int64
	var firstAt time.Duration
	ch := NewChain(eng, ChainProps{
		Delay: 5 * time.Millisecond,
		Rate:  8 * units.Mbps,
	}, func(p *packet.Packet) {
		if delivered == 0 {
			firstAt = eng.Now()
		}
		delivered += int64(p.Size)
	})
	// Offer 2 MB/s (2x the shaped rate) paced so the tail-drop queue
	// stays busy without being flooded instantly.
	for i := 0; i < 2000; i++ {
		at := time.Duration(i) * 500 * time.Microsecond
		eng.At(at, func() { ch.Enqueue(mkPacket(1000)) })
	}
	eng.Run(time.Second + 5*time.Millisecond)
	if firstAt < 5*time.Millisecond {
		t.Fatalf("first delivery at %v, want >= 5ms (netem first)", firstAt)
	}
	if delivered < 0.9e6 || delivered > 1.2e6 {
		t.Fatalf("chain delivered %d bytes, want ~1e6 (8Mbps for 1s)", delivered)
	}
}

func BenchmarkTokenBucket(b *testing.B) {
	eng := sim.NewEngine(1)
	tb := NewTokenBucket(eng, 10*units.Gbps, func(p *packet.Packet) {})
	p := mkPacket(1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Enqueue(p)
		if i%1024 == 0 {
			eng.Run(eng.Now() + time.Millisecond)
		}
	}
}

// TestSetRateUnlimitedFlushesBacklog: a backlog held when the rate becomes
// unlimited must leave at once. Before the fix drain re-armed a 1µs timer
// forever (need/0 = +Inf, floored), releasing nothing.
func TestSetRateUnlimitedFlushesBacklog(t *testing.T) {
	eng := sim.NewEngine(1)
	delivered, woken := 0, 0
	tb := NewTokenBucket(eng, 1*units.Mbps, func(*packet.Packet) { delivered++ })
	for i := 0; i < 10; i++ {
		tb.Enqueue(mkPacket(packet.MTU))
	}
	if tb.Backlog() == 0 {
		t.Fatal("setup: no backlog at 1 Mb/s")
	}
	for i := 0; i < 2; i++ {
		tb.NotifyWritable(func() { woken++ })
	}
	tb.SetRate(0)
	if delivered != 10 || tb.Backlog() != 0 || tb.queue.Len() != 0 {
		t.Fatalf("after SetRate(0): %d/10 delivered, %d B queued", delivered, tb.Backlog())
	}
	if woken != 1 {
		t.Fatalf("the flush woke %d parked senders, want 1", woken)
	}
	for fired := 0; eng.Step(); fired++ {
		if fired > 4 {
			t.Fatal("drain timer still re-arming after the flush")
		}
	}
	// The bucket shapes again once it gets a rate back.
	tb.SetRate(1 * units.Mbps)
	for i := 0; i < 5; i++ {
		tb.Enqueue(mkPacket(packet.MTU))
	}
	if tb.Backlog() == 0 {
		t.Fatal("no backlog after the rate came back")
	}
	eng.RunAll()
	if delivered != 15 || tb.SentPackets != 15 {
		t.Fatalf("%d delivered, %d counted after re-shaping, want 15", delivered, tb.SentPackets)
	}
}

// TestTSQBoundary: a sender may queue up to the TSQ limit and not one byte
// past it, and parked senders are woken one per drain pass that released
// a packet, first come first served, only once the backlog leaves room
// for another MSS — the first wake comes with exactly that much room.
func TestTSQBoundary(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := NewTokenBucket(eng, units.Mbps, func(*packet.Packet) {})
	tb.SetQueueLimit(1 << 20) // keep tail drop out of the way
	var woken, backlogs []int
	park := func(i int) {
		tb.NotifyWritable(func() {
			woken = append(woken, i)
			backlogs = append(backlogs, tb.Backlog())
		})
	}
	tb.Enqueue(mkPacket(packet.MTU)) // leaves at once, on the burst
	park(0)
	// The first departure leaves less than an MSS of room, the second
	// exactly an MSS. Queueing the first runs a pass that releases
	// nothing, so it wakes no one, room or not.
	tb.Enqueue(mkPacket(448))
	if len(woken) != 0 {
		t.Fatalf("a drain pass that released nothing woke %v", woken)
	}
	tb.Enqueue(mkPacket(packet.MSS - 448))
	for tb.Backlog() < tsqLimit {
		tb.Enqueue(mkPacket(min(1024, tsqLimit-tb.Backlog())))
	}
	if tb.Backlog() != tsqLimit || !tb.Writable(0) || tb.Writable(1) {
		t.Fatalf("backlog %d B: Writable(0)=%v Writable(1)=%v, want %d B, true, false",
			tb.Backlog(), tb.Writable(0), tb.Writable(1), tsqLimit)
	}
	park(1)
	park(2)
	held := 0 // releasing passes that left too little room to wake anyone
	for sent := tb.SentPackets; len(woken) < 3; sent = tb.SentPackets {
		before := len(woken)
		if !eng.Step() {
			t.Fatalf("bucket went idle with %v woken", woken)
		}
		released := tb.SentPackets > sent
		room := tb.Backlog()+packet.MSS <= tsqLimit
		switch wakes := len(woken) - before; {
		case released && room && wakes != 1, (!released || !room) && wakes != 0:
			t.Fatalf("pass released %v with backlog %d B: %d wakes", released, tb.Backlog(), wakes)
		case released && !room:
			held++
		}
	}
	if held == 0 {
		t.Fatal("no releasing pass was held back by the MSS of room")
	}
	if woken[0] != 0 || woken[1] != 1 || woken[2] != 2 {
		t.Fatalf("woken = %v, want [0 1 2]", woken)
	}
	if backlogs[0] != tsqLimit-packet.MSS {
		t.Fatalf("first wake at a backlog of %d B, want %d", backlogs[0], tsqLimit-packet.MSS)
	}
}

// backing returns every cell of a FIFO's array, popped ones included.
func backing[T any](q *FIFO[T]) []T { return q.buf[:cap(q.buf)] }

func TestFIFOOrderAndReuse(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	// A standing backlog of up to 7 under push/pop churn: the array must
	// stop growing once it covers the backlog.
	for round := 0; round < 1000; round++ {
		for q.Len() < 3+round%5 {
			q.Push(next)
			next++
		}
		for q.Len() > round%3 {
			if got := q.Peek(); got != want {
				t.Fatalf("Peek = %d, want %d", got, want)
			}
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	if cap(q.buf) > 32 {
		t.Fatalf("array grew to %d cells for a backlog of at most 7", cap(q.buf))
	}
}

// TestDrainedQueuesRetainNothing: a popped packet or waiter must not stay
// reachable from the queue's array (queue = queue[1:] kept it until the
// next regrowth).
func TestDrainedQueuesRetainNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	tb := NewTokenBucket(eng, 10*units.Mbps, func(*packet.Packet) {})
	for round := 0; round < 3; round++ { // refill after a drain: exercises the slide too
		for i := 0; i < 9; i++ {
			tb.Enqueue(mkPacket(1000))
		}
		eng.Run(eng.Now() + 2*time.Millisecond)
		tb.Enqueue(mkPacket(1000))
	}
	eng.RunAll()
	if tb.queue.Len() != 0 || tb.Backlog() != 0 {
		t.Fatalf("bucket not drained: %d packets, %d B", tb.queue.Len(), tb.Backlog())
	}
	for i, p := range backing(&tb.queue) {
		if p != nil {
			t.Fatalf("empty bucket still references a packet in cell %d", i)
		}
	}

	var q FIFO[*int]
	for i := 0; i < 100; i++ {
		q.Push(new(int))
		q.Push(new(int))
		q.Pop()
	}
	held := 0
	for _, p := range backing(&q) {
		if p != nil {
			held++
		}
	}
	if held != q.Len() {
		t.Fatalf("array holds %d pointers for a queue of %d", held, q.Len())
	}
}

// The zero-alloc contract of the shaping path: one packet through
// htb → netem → sink costs nothing beyond the caller's packet, queued or
// not, at steady state — also when netem draws jitter and loss from the
// engine's stream.
func TestChainAllocatesNothingPerPacket(t *testing.T) {
	for _, tc := range []struct {
		name  string
		props ChainProps
	}{
		{"delay", ChainProps{Delay: 10 * time.Millisecond, Rate: 100 * units.Mbps}},
		{"jitter+loss", ChainProps{Delay: 10 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.1, Rate: 100 * units.Mbps}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			delivered := 0
			ch := NewChain(eng, tc.props, func(*packet.Packet) { delivered++ })
			p := mkPacket(packet.MTU)
			gap := tc.props.Rate.TimeToSend(packet.MTU)
			send := func() {
				ch.Enqueue(p) // passes on tokens
				ch.Enqueue(p) // queues behind it, waits for the wake-up
				eng.Run(eng.Now() + 2*gap)
			}
			for i := 0; i < 200; i++ { // fill the 10 ms pipe: slot table and heap at working size
				send()
			}
			if got := testing.AllocsPerRun(500, send); got != 0 {
				t.Fatalf("%v allocs per two packets through the chain, want 0", got)
			}
			eng.RunAll()
			if delivered == 0 || int64(delivered) != ch.Netem.SentPackets ||
				ch.Netem.SentPackets+ch.Netem.LostPackets != ch.HTB.SentPackets {
				t.Fatalf("delivered %d of %d, %d lost", delivered, ch.HTB.SentPackets, ch.Netem.LostPackets)
			}
			if (tc.props.Loss > 0) != (ch.Netem.LostPackets > 0) {
				t.Fatalf("loss %v dropped %d packets", tc.props.Loss, ch.Netem.LostPackets)
			}
		})
	}
}
