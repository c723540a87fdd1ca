package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanID identifies a recorded span; noSpan is the parent of a root.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer, in nanoseconds since the tracer
// started.
type span struct {
	name       string
	start, end int64
	parent     spanID
	exp        int64
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so the untraced run passes nil and pays one nil check per call
// site. Spans from several goroutines are safe: every method locks.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named name under parent for experiment exp.
func (t *tracer) begin(name string, parent spanID, exp int64) spanID {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, exp: exp})
	return spanID(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// durations returns the durations, in nanoseconds, of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// total sums the durations of every span named name, in nanoseconds.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTotal sums the self time of every span named name, in
// nanoseconds.
func (t *tracer) selfTotal(name string) float64 {
	self := selfTimes(t.spans)
	var sum float64
	for i, s := range t.spans {
		if s.name == name {
			sum += float64(self[i])
		}
	}
	return sum
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children may overlap (concurrent callers), so overlapping coverage is
// counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	for i, s := range spans {
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		var cur iv
		for k, v := range ivs {
			switch {
			case k == 0:
				cur = v
			case v.lo <= cur.hi:
				cur.hi = max(cur.hi, v.hi)
			default:
				covered += cur.hi - cur.lo
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.hi - cur.lo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelfShares sums self time per layer over the trees whose root
// span is named root, and divides by their total self time (which equals
// the summed duration of those roots when children nest inside their
// parents). A parent always precedes its children in spans.
func layerSelfShares(spans []span, root string) map[string]float64 {
	self := selfTimes(spans)
	inTree := make([]bool, len(spans))
	by := map[string]float64{}
	var total float64
	for i, s := range spans {
		if s.parent == noSpan {
			inTree[i] = s.name == root
		} else {
			inTree[i] = inTree[s.parent]
		}
		if !inTree[i] {
			continue
		}
		by[layerOf(s.name)] += float64(self[i])
		total += float64(self[i])
	}
	for k, v := range by {
		by[k] = ratio(v, total)
	}
	return by
}

// writeSpans writes every span as one CSV row (id, parent, exp, name,
// start_ns, end_ns, self_ns) to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(t.spans)
	fmt.Fprintln(w, "id,parent,exp,name,start_ns,end_ns,self_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", i, s.parent, s.exp, s.name, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
