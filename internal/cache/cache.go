// Package cache is the single-flight LRU behind every snapshot, blob,
// chunk and validator cache in the repository: DiskStore's read cache,
// toplist.Remote's snapshot cache, the blob caches of the archived and
// listserv servers, the pack reader's decode cache, its HTTP Range
// chunk cache, and the listserv client's ETag cache.
//
// The policy is fixed, with no knobs:
//
//   - At most one fill runs per key at a time. Concurrent callers of
//     Do for the same key join it and wait under their own context; a
//     cancelled waiter returns ctx.Err() and leaves the entry alone.
//   - A fill that returns a nil error is memoized, whatever the value
//     means to the caller ("absent" and "corrupt" values included).
//   - A fill that returns an error is never memoized: its entry is
//     removed if it is still the installed one, and the filler and
//     every waiter get the error.
//   - A hit or a join moves the entry to the front; installing an entry
//     evicts from the back past capacity, and an evicted in-flight
//     entry still completes for its waiters. Capacity <= 0 never
//     evicts.
//   - A lookup whose validator differs from the installed entry's
//     replaces that entry, so a key never holds two entries.
package cache

import (
	"container/list"
	"context"
	"iter"
	"sync"
)

// LRU maps keys to values filled on demand. All methods are safe for
// concurrent use.
type LRU[K comparable, V any] struct {
	capacity int

	mu    sync.Mutex
	items map[K]*entry[K, V]
	order *list.List // front = most recent; values are *entry[K, V]
}

type entry[K comparable, V any] struct {
	key       K
	validator any
	ready     chan struct{} // closed once val and err are final
	val       V
	err       error
	elem      *list.Element
}

// New returns an empty cache holding at most capacity entries;
// capacity <= 0 means unbounded.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{capacity: capacity, items: make(map[K]*entry[K, V]), order: list.New()}
}

// Do returns the value cached for key, running fill to produce it when
// no entry is installed or the installed entry's validator differs
// from validator (which must be comparable; nil for caches whose
// entries never go stale). fill runs on the caller's goroutine,
// outside the cache lock. ctx bounds only the wait for another
// caller's fill.
func (c *LRU[K, V]) Do(ctx context.Context, key K, validator any, fill func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok && e.validator == validator {
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		return e.wait(ctx)
	}
	e := &entry[K, V]{key: key, validator: validator, ready: make(chan struct{})}
	c.installLocked(e)
	c.mu.Unlock()

	e.val, e.err = fill()
	if e.err != nil {
		c.mu.Lock()
		if c.items[key] == e {
			c.removeLocked(e)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.val, e.err
}

// wait returns the entry's result once its fill settles. A settled
// entry answers even under a cancelled ctx.
func (e *entry[K, V]) wait(ctx context.Context) (V, error) {
	select {
	case <-e.ready:
		return e.val, e.err
	default:
	}
	select {
	case <-e.ready:
		return e.val, e.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Get returns the value memoized for key and marks it most recently
// used. It never fills and never waits: a key whose fill is still in
// flight reports false.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok && e.settled() {
		c.order.MoveToFront(e.elem)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Add memoizes val for key with a nil validator, replacing any entry
// the key holds; a replaced in-flight fill still completes for its
// waiters.
func (c *LRU[K, V]) Add(key K, val V) {
	e := &entry[K, V]{key: key, val: val, ready: make(chan struct{})}
	close(e.ready)
	c.mu.Lock()
	c.installLocked(e)
	c.mu.Unlock()
}

// Remove drops key's entry, settled or in flight. An in-flight fill
// still completes for its waiters, but its result is not memoized.
func (c *LRU[K, V]) Remove(key K) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.removeLocked(e)
	}
	c.mu.Unlock()
}

// All returns the memoized entries, most recently used first, without
// touching their recency. It iterates over a copy taken when iteration
// starts, so the loop body may call any method of the cache.
func (c *LRU[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		c.mu.Lock()
		settled := make([]*entry[K, V], 0, len(c.items))
		for el := c.order.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*entry[K, V]); e.settled() {
				settled = append(settled, e)
			}
		}
		c.mu.Unlock()
		for _, e := range settled {
			if !yield(e.key, e.val) {
				return
			}
		}
	}
}

// settled reports whether e's fill has completed. An installed settled
// entry always holds a memoized value: failed fills are removed before
// they settle.
func (e *entry[K, V]) settled() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// installLocked makes e key's entry, replacing any previous one, and
// evicts from the back past capacity; callers hold c.mu.
func (c *LRU[K, V]) installLocked(e *entry[K, V]) {
	if old, ok := c.items[e.key]; ok {
		c.removeLocked(old)
	}
	e.elem = c.order.PushFront(e)
	c.items[e.key] = e
	for c.capacity > 0 && len(c.items) > c.capacity {
		c.removeLocked(c.order.Back().Value.(*entry[K, V]))
	}
}

func (c *LRU[K, V]) removeLocked(e *entry[K, V]) {
	c.order.Remove(e.elem)
	delete(c.items, e.key)
}
