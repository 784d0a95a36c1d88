package main

import "time"

// The speedometer. The machines this benchmark runs on are shared VMs
// whose speed drifts by tens of percent over minutes (README.md, "How
// the bounds were set"): the repetitions of one invocation agree to a
// few percent while invocations a minute apart differ by a third, on
// every workload at once. No bound a timing metric may carry survives
// that, so next to every repetition the harness times a fixed piece of
// work of its own — a hold-model event loop over a binary heap that
// allocates the way the simulator does — and divides the repetition's
// timings by how much slower than refSpeedNs the machine ran it. The
// loop belongs to the harness and never calls the program, so a change
// to the program cannot move it; the raw timings are printed alongside.

// refSpeedNs is the speedometer's reading on the seed tree's machine at
// full speed. It only fixes the scale of the normalized timings.
const refSpeedNs = 150.0

type speedEvent struct {
	at uint64
	fn func() uint64
}

// speedometer returns how many nanoseconds one event of the reference
// loop takes right now: the median of five bursts, half a second in all.
func speedometer() float64 {
	const depth, events, bursts = 4096, 600000, 5
	r := newRNG(1, "speedometer")
	var heap []*speedEvent
	push := func(e *speedEvent) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() *speedEvent {
		top := heap[0]
		n := len(heap) - 1
		heap[0], heap[n] = heap[n], nil
		heap = heap[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && heap[c+1].at < heap[c].at {
				c++
			}
			if heap[i].at <= heap[c].at {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}
	var now uint64
	schedule := func() {
		at := now + r.next()%1000
		push(&speedEvent{at: at, fn: func() uint64 { return at }})
	}
	for i := 0; i < depth; i++ {
		schedule()
	}
	var ns []float64
	for b := 0; b < bursts; b++ {
		start := time.Now()
		for i := 0; i < events; i++ {
			now = pop().fn()
			schedule()
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/events)
	}
	return quantile(ns, 0.5)
}
