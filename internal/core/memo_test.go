package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/units"
)

// memoPool is FuzzEntitlementMemo's small pool of entitlement inputs, so
// that a drawn sequence repeats and alternates them. Link 2 is the only
// link whose capacity the tables move, link 5 the one they tombstone, and
// link 3 the only link whose latency the variants move.
var memoPool = struct {
	tables [3][]float64
	lats   [2][8]time.Duration
	local  [3][][]int
	remote [3][][]int
}{
	tables: [3][]float64{
		{50e6, 50e6, 10e6, 100e6, 50e6, 20e6, 30e6, 40e6},
		{50e6, 50e6, 20e6, 100e6, 50e6, 20e6, 30e6, 40e6},
		{50e6, 50e6, 10e6, 100e6, 50e6, -1, 30e6, 40e6},
	},
	lats: [2][8]time.Duration{
		{5e6, 5e6, 5e6, 5e6, 5e6, 5e6, 5e6, 5e6},
		{5e6, 5e6, 5e6, 10e6, 5e6, 5e6, 5e6, 5e6},
	},
	local: [3][][]int{
		{{0, 3}, {1, 4}},
		{{0, 3}, {1, 4}, {2}},
		{{0, 3}, {2, 5}},
	},
	remote: [3][][]int{
		{{3, 6}, {4, 7}},
		{{3, 6}, {4, 7}, {5, 3, 2}},
		{},
	},
}

// FuzzEntitlementMemo drives one entitlementMemo the way Manager.enforce
// does, over a sequence of inputs drawn from memoPool: each byte picks a
// capacity table, a local and a remote flow set, a latency variant (which
// moves the RTT of every flow crossing link 3) and whether the remote view
// was priced anew regardless. The capacity version moves as
// Runtime.linkTables moves it, only when the table's content changed; the
// view counter as remoteView.priced does, whenever the remote entries may
// have. Demands change every step and must not matter. Every answer, hit
// or miss, must equal a fresh Allocate of the greedy input bit for bit,
// fill levels included.
func FuzzEntitlementMemo(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4, 0, 4})                // two local sets alternate
	f.Add([]byte{0, 16, 32, 0, 16, 32})            // three remote sets cycle
	f.Add([]byte{0, 64, 0, 64, 1, 2, 1, 2, 0})     // latency flaps, then capacities
	f.Add([]byte{0, 128, 128, 5, 133, 21, 149, 0}) // view repriced with nothing moved
	f.Fuzz(func(t *testing.T, steps []byte) {
		var (
			memo        entitlementMemo
			s, fresh    AllocState
			ver, view   uint64
			caps        []float64
			lastRemote  = -1
			lastLatency = -1
		)
		for n, b := range steps {
			table := memoPool.tables[int(b&3)%3]
			if !slices.Equal(caps, table) {
				ver++
			}
			caps = table
			li, ri, lv := int(b>>2&3)%3, int(b>>4&3)%3, int(b>>6&1)
			if ri != lastRemote || lv != lastLatency || b&128 != 0 {
				view++
			}
			lastRemote, lastLatency = ri, lv
			var flows []FlowDemand
			add := func(id FlowID, links []int, weight int) {
				var rtt time.Duration
				for _, l := range links {
					rtt += 2 * memoPool.lats[lv][l]
				}
				demand := units.Bandwidth((n*7919+len(flows)*131)%5) * units.Mbps
				flows = append(flows, FlowDemand{ID: id, Links: links, RTT: rtt, Demand: demand, Weight: weight})
			}
			local := memoPool.local[li]
			for i, links := range local {
				add(LocalFlowID(0, i), links, 0)
			}
			for i, links := range memoPool.remote[ri] {
				add(RemoteFlowID(i), links, 1+i%2)
			}

			slot, miss := memo.entitlement(&s, caps, ver, view, len(local), flows)
			greedy := slices.Clone(flows)
			for i := range greedy {
				greedy[i].Demand = 0
			}
			want := fresh.Allocate(caps, greedy, nil)
			if !slices.Equal(memo.out[slot], want) {
				t.Fatalf("step %d (byte %#x, miss cause %d): memo answered %v, fresh solve %v", n, b, miss, memo.out[slot], want)
			}
			got := memo.level[slot]
			if len(got) != len(want) {
				t.Fatalf("step %d: %d fill levels for %d flows", n, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(fresh.level[i]) {
					t.Fatalf("step %d (byte %#x, miss cause %d): flow %d fill level %v, fresh solve %v", n, b, miss, i, got[i], fresh.level[i])
				}
			}
		}
	})
}
