package sim

// lru is a bounded least-recently-used cache. It is not safe for
// concurrent use on its own; the Simulator guards its caches with a
// mutex. Eviction only ever discards memoized pure computations, so a
// bounded capacity trades recomputation for memory without affecting
// results.
type lru[K comparable, V any] struct {
	cap int
	idx map[K]*lruEntry[K, V]
	// head is the sentinel of a circular doubly linked list of the
	// entries: head.next is the most recently used, head.prev the least.
	head lruEntry[K, V]
}

// lruEntry is one cached value, linked into its cache's recency list.
type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

// newLRU returns an empty cache holding at most cap entries.
func newLRU[K comparable, V any](cap int) *lru[K, V] {
	if cap < 1 {
		cap = 1
	}
	c := &lru[K, V]{cap: cap, idx: make(map[K]*lruEntry[K, V])}
	c.head.prev, c.head.next = &c.head, &c.head
	return c
}

// get returns the cached value for k, marking it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	if e, ok := c.idx[k]; ok {
		c.moveToFront(e)
		return e.val, true
	}
	var zero V
	return zero, false
}

// put inserts or refreshes k, evicting the least recently used entry when
// the cache is full.
func (c *lru[K, V]) put(k K, v V) {
	if e, ok := c.idx[k]; ok {
		e.val = v
		c.moveToFront(e)
		return
	}
	e := &lruEntry[K, V]{key: k, val: v}
	c.idx[k] = e
	c.link(e)
	if len(c.idx) > c.cap {
		back := c.head.prev
		c.unlink(back)
		delete(c.idx, back.key)
	}
}

// len returns the current entry count.
func (c *lru[K, V]) len() int { return len(c.idx) }

func (c *lru[K, V]) moveToFront(e *lruEntry[K, V]) {
	if c.head.next != e {
		c.unlink(e)
		c.link(e)
	}
}

// link inserts e at the front of the recency list.
func (c *lru[K, V]) link(e *lruEntry[K, V]) {
	e.prev, e.next = &c.head, c.head.next
	c.head.next.prev = e
	c.head.next = e
}

// unlink removes e from the recency list.
func (c *lru[K, V]) unlink(e *lruEntry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}
