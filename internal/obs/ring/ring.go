// Package ring is the bounded recent-history buffer behind every status
// surface: request traces, served verdicts, epoch diffs, scored alert
// outcomes, triggered profiles and retrain attempts each keep their last
// N entries in one Ring.
//
// Push overwrites the oldest slot through an index, so it is O(1) and,
// once the ring is full, allocation-free — two owners push on the
// request path (every root trace, every served positive verdict).
// Readers see entries newest first.
package ring

import "sync"

// Ring keeps the most recent n values pushed. Safe for concurrent use.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int // slot the next Push overwrites once buf is full
	total uint64
}

// New returns a ring keeping the most recent n values (n < 1 means 1).
func New[T any](n int) *Ring[T] {
	if n < 1 {
		n = 1
	}
	return &Ring[T]{buf: make([]T, 0, n)}
}

// Push appends v, evicting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
}

// Newest returns a copy of the buffered values, newest first. The slice
// is never nil, so an empty ring renders as a JSON [].
func (r *Ring[T]) Newest() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	r.each(func(v *T) bool {
		out = append(out, *v)
		return true
	})
	return out
}

// Len reports the number of buffered values.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total reports how many values were ever pushed, evicted ones included.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Each calls fn on the buffered values in place, newest first, until fn
// returns false. fn runs with the ring locked: it may modify the value it
// is handed but must not call the ring's methods.
func (r *Ring[T]) Each(fn func(*T) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.each(fn)
}

// each walks backwards from the newest slot: next-1 once the ring has
// wrapped, the last appended slot before that (next is 0 until then).
func (r *Ring[T]) each(fn func(*T) bool) {
	n := len(r.buf)
	for i := 1; i <= n; i++ {
		if !fn(&r.buf[(r.next-i+n)%n]) {
			return
		}
	}
}
