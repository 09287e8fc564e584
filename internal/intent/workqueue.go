package intent

import (
	"repro/internal/dataplane"
	"repro/internal/simtime"
)

// wqItem is one queued key with its next attempt time and retry count.
type wqItem struct {
	key     dataplane.VIP
	readyAt simtime.Time
	retries int
}

// workqueue is a bounded per-key work queue over virtual time: each key
// appears at most once, items become due at readyAt, and Due returns them
// in deterministic (readyAt, key) order. There is no goroutine pool — the
// reconciler drains due items inside its own rounds, so the queue stays a
// plain data structure that both virtual-time and wall-clock drivers can
// share.
type workqueue struct {
	max     int
	items   map[dataplane.VIP]*wqItem
	dropped uint64
}

func newWorkqueue(max int) *workqueue {
	if max <= 0 {
		max = 1024
	}
	return &workqueue{max: max, items: make(map[dataplane.VIP]*wqItem)}
}

// Add enqueues key to run at readyAt. An already-queued key keeps its
// earliest ready time and its retry count. Returns false when the queue is
// at its bound and the key is new (the drop is counted; callers surface it
// via drift detection on a later round).
func (q *workqueue) Add(key dataplane.VIP, readyAt simtime.Time) bool {
	if it, ok := q.items[key]; ok {
		if readyAt.Before(it.readyAt) {
			it.readyAt = readyAt
		}
		return true
	}
	if len(q.items) >= q.max {
		q.dropped++
		return false
	}
	q.items[key] = &wqItem{key: key, readyAt: readyAt}
	return true
}

// Requeue re-enqueues key after a failed attempt, recording its retry
// count and backoff deadline. Unlike Add it always moves readyAt.
func (q *workqueue) Requeue(key dataplane.VIP, readyAt simtime.Time, retries int) {
	if it, ok := q.items[key]; ok {
		it.readyAt = readyAt
		it.retries = retries
		return
	}
	q.items[key] = &wqItem{key: key, readyAt: readyAt, retries: retries}
}

// Forget drops key from the queue (converged or superseded).
func (q *workqueue) Forget(key dataplane.VIP) { delete(q.items, key) }

// Retries returns key's recorded retry count (0 when not queued).
func (q *workqueue) Retries(key dataplane.VIP) int {
	if it, ok := q.items[key]; ok {
		return it.retries
	}
	return 0
}

// Due returns the keys ready to run at now, ordered by (readyAt, key
// string) so rounds are deterministic under virtual time.
func (q *workqueue) Due(now simtime.Time) []dataplane.VIP {
	due := make([]*wqItem, 0, len(q.items))
	for _, it := range q.items {
		if !now.Before(it.readyAt) {
			due = append(due, it)
		}
	}
	sortItems(due)
	out := make([]dataplane.VIP, len(due))
	for i, it := range due {
		out[i] = it.key
	}
	return out
}

// NextDue returns the earliest ready time over every queued key.
func (q *workqueue) NextDue() (simtime.Time, bool) {
	var best simtime.Time
	found := false
	for _, it := range q.items {
		if !found || it.readyAt.Before(best) {
			best = it.readyAt
			found = true
		}
	}
	return best, found
}

// Len returns the number of queued keys.
func (q *workqueue) Len() int { return len(q.items) }

func sortItems(items []*wqItem) {
	// Insertion sort: due sets are small and almost sorted; avoids
	// importing sort for a two-field comparator. Deterministic order is
	// what matters, not speed.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && itemLess(items[j], items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

func itemLess(a, b *wqItem) bool {
	if a.readyAt != b.readyAt {
		return a.readyAt.Before(b.readyAt)
	}
	return FormatVIP(a.key) < FormatVIP(b.key)
}
