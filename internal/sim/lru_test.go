package sim

import "testing"

// TestLRUEvictsLeastRecentlyUsed: a full cache evicts the entry neither
// read nor written for longest; get and put both refresh recency.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[int, string](3)
	c.put(1, "a")
	c.put(2, "b")
	c.put(3, "c")
	c.get(1)      // order, most recent first: 1 3 2
	c.put(3, "C") // 3 1 2
	c.put(4, "d") // evicts 2
	var order []int
	for e := c.head.next; e != &c.head; e = e.next {
		order = append(order, e.key)
	}
	if len(order) != 3 || order[0] != 4 || order[1] != 3 || order[2] != 1 {
		t.Fatalf("recency order %v, want [4 3 1]", order)
	}
	if _, ok := c.get(2); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	for k, want := range map[int]string{1: "a", 3: "C", 4: "d"} {
		if got, ok := c.get(k); !ok || got != want {
			t.Fatalf("get(%d) = %q, %v; want %q", k, got, ok, want)
		}
	}
	if c.len() != 3 {
		t.Fatalf("len %d, want 3", c.len())
	}
}
