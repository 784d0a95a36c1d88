package netem

// FIFO is the queue under every per-packet backlog and waiter list: one
// slice with a head index, so a steady push/pop stream reuses its backing
// array instead of re-slicing it away (queue = queue[1:] + append
// reallocates once per array length). Pop clears the vacated cell, so a
// dequeued pointer is not kept reachable by the queue. The zero value is
// an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v. When the array is full and at least half of it is
// already-popped space, the live items slide down instead of growing it —
// at most one move per earlier Pop, so Push stays amortised O(1) and the
// array stays within a constant factor of the peak backlog.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Peek returns the oldest item without removing it. The queue must not be
// empty.
func (q *FIFO[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the oldest item. The queue must not be empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
