package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/units"
)

// dropYAML has a path for each place the network drops a packet: a→b is
// a 10 Mb/s path to flood past its htb queue, a→z crosses a link that
// loses everything, and x–y is an island a cannot reach.
const dropYAML = `
experiment:
  services:
    name: a
    name: b
    name: z
    name: x
    name: y
  links:
    orig: a
    dest: b
    latency: 5
    up: 10Mbps
    orig: a
    dest: z
    latency: 5
    up: 10Mbps
    loss: 1
    orig: x
    dest: y
    latency: 5
    up: 10Mbps
`

// dropRig is a started three-host deployment of dropYAML whose
// containers count the datagrams they receive on port 9.
type dropRig struct {
	rt  *Runtime
	got map[string]int
}

func newDropRig(t *testing.T) *dropRig {
	r := &dropRig{rt: buildRuntime(t, dropYAML, 3, Options{}), got: map[string]int{}}
	for _, c := range r.rt.Containers() {
		name := c.Name
		c.Stack.HandleUDP(9, func(packet.IP, uint16, int, any) { r.got[name]++ })
	}
	r.rt.Start()
	return r
}

func (r *dropRig) c(name string) *Container {
	c, _ := r.rt.Container(name)
	return c
}

// flood sends n datagrams of size payload bytes from src to dst.
func (r *dropRig) flood(src, dst string, n, size int) {
	for i := 0; i < n; i++ {
		r.c(src).Stack.SendUDP(r.c(dst).IP, 9, 9, size, nil)
	}
}

// packetTo draws a pooled UDP packet from src to dst.
func (r *dropRig) packetTo(src, dst packet.IP) *packet.Packet {
	p := r.rt.Eng.Packets().Get()
	p.Src, p.Dst, p.Proto, p.Size = src, dst, packet.UDP, 100
	return p
}

// TestDropSitesReleaseEveryPacket drives each drop site on a running
// deployment, managers and all, then stops mid-period — every datagram
// delivered, every chaos delay elapsed — where each packet and frame the
// engine's pool handed out must be back in it.
func TestDropSitesReleaseEveryPacket(t *testing.T) {
	for _, site := range []struct {
		name string
		// drive makes the site drop packets, 100 virtual ms in.
		drive func(r *dropRig)
		// dropped reports whether the site dropped anything.
		dropped func(r *dropRig) bool
	}{
		{"netem 100% loss", func(r *dropRig) { r.flood("a", "z", 100, 1000) },
			func(r *dropRig) bool { return r.got["z"] == 0 && r.c("a").TCAL().TotalSent(r.c("z").IP) > 0 }},
		{"htb tail drop", func(r *dropRig) { r.flood("a", "b", 1000, 1400) },
			func(r *dropRig) bool { return r.got["b"] > 0 && r.got["b"] < 1000 }},
		{"fabric no route", func(r *dropRig) {
			a, nobody := r.c("a").IP, packet.MakeIP(99, 0, 0)
			r.rt.Cluster.Send(r.packetTo(nobody, a)) // unknown source
			r.rt.Cluster.Send(r.packetTo(a, nobody)) // unknown destination
			host, _ := r.rt.Cluster.Graph().Lookup(fmt.Sprintf("host%d", r.c("a").Host))
			unheard := packet.MakeIP(99, 0, 1)
			r.rt.Cluster.AttachEndpoint(host, unheard, nil)
			r.rt.Cluster.Send(r.packetTo(a, unheard)) // no handler
		}, func(r *dropRig) bool { return r.rt.Cluster.DroppedNoRoute == 2 }},
		{"unmatched TCAL", func(r *dropRig) { r.c("a").TCAL().Send(r.packetTo(r.c("a").IP, r.c("x").IP)) },
			func(r *dropRig) bool { return r.c("a").TCAL().UnmatchedDropped == 1 }},
		{"unreachable install", func(r *dropRig) { r.flood("a", "y", 10, 100) },
			func(r *dropRig) bool {
				_, installed := r.c("a").TCAL().Props(r.c("y").IP)
				return r.got["y"] == 0 && !installed && r.c("a").TCAL().UnmatchedDropped == 10
			}},
		{"killed manager", func(r *dropRig) {
			// Every datagram is held 5–10 ms, so host 1 dies with its
			// period's datagrams in flight; a publish racing the kill
			// hands its frames straight back.
			rt := r.rt
			chaos.SetProfile(chaos.Profile{Delay: 1, DelayMin: 5 * time.Millisecond, DelayMax: 10 * time.Millisecond}).Apply(rt.Eng.Now(), rt.Chaos())
			rt.Eng.At(time.Second+time.Millisecond, func() {
				if err := rt.KillManager(1); err != nil {
					panic(err)
				}
				m := rt.managers[1]
				m.node.Publish(rt.Eng.Now(), &m.msg)
			})
		}, func(r *dropRig) bool { return r.rt.ManagerDown(1) }},
		{"chaos drop and duplicate", func(r *dropRig) {
			chaos.SetProfile(chaos.Profile{Drop: 0.3, Duplicate: 0.3, DupBurst: 2, Corrupt: 0.1,
				Delay: 0.3, DelayMin: time.Millisecond, DelayMax: 10 * time.Millisecond}).Apply(r.rt.Eng.Now(), r.rt.Chaos())
		}, func(r *dropRig) bool {
			s := r.rt.Chaos().Stats()
			return s.Dropped > 0 && s.Duplicated > 0 && s.Corrupted > 0 && s.Delayed > 0
		}},
	} {
		t.Run(site.name, func(t *testing.T) {
			r := newDropRig(t)
			r.rt.Eng.Run(100 * time.Millisecond)
			site.drive(r)
			r.rt.Eng.Run(2*time.Second + r.rt.opts.Period/2)
			if !site.dropped(r) {
				t.Fatalf("the site dropped nothing (received %v)", r.got)
			}
			if out, frames := r.rt.Eng.Packets().Outstanding(); out != 0 || frames != 0 {
				t.Fatalf("%d packets and %d frames never came back to the pool", out, frames)
			}
		})
	}
}

// TestSetLinkChangesTheChainInPlace: a set-link event re-points an
// installed chain in place, like tc qdisc replace. The chain toward the
// changed path carries the new properties and keeps what it held: its
// backlog, its parked sender and its Poll cursor.
func TestSetLinkChangesTheChainInPlace(t *testing.T) {
	r := newDropRig(t)
	rt := r.rt
	rt.Eng.Run(100 * time.Millisecond)
	a, b := r.c("a"), r.c("b")
	tc := a.TCAL()
	r.flood("a", "b", 1, 100) // the first send installs the chain
	rt.Eng.Run(rt.Eng.Now() + 10*time.Millisecond)
	tc.Poll(b.IP)
	var offered int64
	for tc.Writable(b.IP, packet.MSS) {
		p := r.packetTo(a.IP, b.IP)
		p.Size = packet.MTU
		offered += packet.MTU
		tc.Send(p)
	}
	woken := 0
	tc.NotifyWritable(b.IP, func() { woken++ })
	backlog := tc.Backlog(b.IP)

	lat, bw := 7*time.Millisecond, 5*units.Mbps
	if err := rt.ApplyEvents(topology.Event{At: rt.Eng.Now(), Kind: topology.EvSetLink, Orig: "a", Dest: "b",
		Props: topology.LinkPatch{Latency: &lat, Up: &bw}}); err != nil {
		t.Fatal(err)
	}
	want := rt.path(a, b.IP).LinkProps
	if want.Latency != lat || want.Bandwidth != bw {
		t.Fatalf("a->b after the event is %+v, want latency %v and bandwidth %v", want, lat, bw)
	}
	if got, _ := tc.Props(b.IP); got != want {
		t.Fatalf("a->b enforces %+v, want the new path's %+v", got, want)
	}
	if got := tc.Backlog(b.IP); got != backlog || backlog == 0 {
		t.Fatalf("backlog %d B after the event, want the %d B held before it", got, backlog)
	}
	if woken != 0 {
		t.Fatalf("the parked sender was woken %d times by the event, want it still parked", woken)
	}
	if sent, got := tc.Poll(b.IP); got != offered || sent+int64(backlog) != offered {
		t.Fatalf("Poll = (%d, %d) after the event, want (%d, %d): the cursor moved", sent, got, offered-int64(backlog), offered)
	}
	rt.Eng.Run(rt.Eng.Now() + time.Second)
	if woken != 1 {
		t.Fatalf("the parked sender was woken %d times as the backlog drained, want once", woken)
	}
}

// TestUseAfterReleasePanics: the rule is checked, not commented. Sending,
// enqueueing or firing an event on a packet after its release panics.
func TestUseAfterReleasePanics(t *testing.T) {
	r := newDropRig(t)
	rt := r.rt
	a, b := r.c("a"), r.c("b")
	sink := func(*packet.Packet) {}
	for _, tc := range []struct {
		name string
		use  func(p *packet.Packet)
	}{
		{"fabric Send", rt.Cluster.Send},
		{"container Send", containerNet{rt, a}.Send},
		{"htb Enqueue", netem.NewTokenBucket(rt.Eng, units.Mbps, sink).Enqueue},
		{"netem Enqueue", netem.NewNetem(rt.Eng, time.Millisecond, 0, 0, sink).Enqueue},
		{"AtPacket firing", func(p *packet.Packet) {
			p.Release() // it was live when scheduled
			rt.Eng.Step()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := r.packetTo(a.IP, b.IP)
			if tc.name == "AtPacket firing" {
				rt.Eng.AtPacket(rt.Eng.Now(), sink, p)
			} else {
				p.Release()
			}
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "of a released packet") {
					t.Fatalf("panic %q, want a use-after-release panic", msg)
				}
			}()
			tc.use(p)
		})
	}
}
