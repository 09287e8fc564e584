package ctrlplane

import "sort"

// insertQueue is the CPU insertion queue: pending insertions ordered by
// completion time in a head-indexed ring, so the steady-state cycle — a
// drain appends a batch at the tail, advanceTo pops from the head —
// moves no elements and allocates nothing once the ring has grown to the
// backlogs the workload produces. Vacated slots are zeroed: an executed
// insertion's tuple is unreachable the moment it leaves the queue, and scans
// (StallCPU, pendingVersion, noPendingBefore) see exactly the live entries.
type insertQueue struct {
	buf  []pendingInsert // len is zero or a power of two
	head int             // index of the earliest entry
	n    int
}

func (q *insertQueue) len() int { return q.n }

// at returns the i-th entry in completion-time order (0 = head).
func (q *insertQueue) at(i int) *pendingInsert {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// push inserts pi at its completion-time position, behind every entry due
// at or before it. Drained batches land behind cpuFreeAt and append at the
// tail; retried insertions carry backoff deadlines that may interleave
// with later drains, so the sorted insert keeps head-pop order time order.
func (q *insertQueue) push(pi pendingInsert) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.n
	if i > 0 && q.at(i-1).completeAt.After(pi.completeAt) {
		i = sort.Search(q.n, func(i int) bool {
			return q.at(i).completeAt.After(pi.completeAt)
		})
	}
	q.n++
	for j := q.n - 1; j > i; j-- {
		*q.at(j) = *q.at(j - 1)
	}
	*q.at(i) = pi
}

// pop removes and returns the head entry.
func (q *insertQueue) pop() pendingInsert {
	slot := q.at(0)
	pi := *slot
	*slot = pendingInsert{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	q.shed()
	return pi
}

// remove deletes the i-th entry, keeping the rest in order.
func (q *insertQueue) remove(i int) {
	for j := i; j < q.n-1; j++ {
		*q.at(j) = *q.at(j + 1)
	}
	*q.at(q.n - 1) = pendingInsert{}
	q.n--
	q.shed()
}

// ringKeep is the largest ring kept once it has drained: a learning-filter
// flush or two. A deeper backlog is an overload episode — connections
// arriving faster than the CPU inserts, a stall — and its ring, a hundred
// bytes a slot, goes back when the episode is over instead of counting
// against the switch's memory for the rest of its life; the next episode
// re-grows it at one allocation per doubling.
const ringKeep = 2048

func (q *insertQueue) shed() {
	if q.n == 0 && len(q.buf) > ringKeep {
		q.buf, q.head = nil, 0
	}
}

// grow doubles the ring, unwrapping the live entries to the front. The
// ring starts small and sizes itself to the backlogs actually seen rather
// than to the learning filter's capacity.
func (q *insertQueue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]pendingInsert, size)
	for i := 0; i < q.n; i++ {
		buf[i] = *q.at(i)
	}
	q.buf, q.head = buf, 0
}
