package dag

import (
	"fmt"

	"repro/internal/stats"
)

// Program is a DAG in a flat structure-of-arrays form for
// repeated Monte-Carlo sampling: dependency edges in CSR layout and one
// encoded Latency per node. Sampling a Program visits nodes in one
// linear pass with no per-node pointer chasing and, for the built-in
// distribution types, no interface calls. A Program is immutable once
// built and safe for concurrent use by any number of goroutines (each
// with its own RNG and scratch buffer).
//
// Programs are the general-shape reference: the simulator evaluates its
// fixed-shape stage segments in closed form over the same Latency
// encoding and is tested bit for bit against CompileRange's programs.
type Program struct {
	// depStart[i]..depStart[i+1] indexes deps, the CSR edge array of
	// node i's dependencies (local node indices).
	depStart []int32
	deps     []int32
	lat      []Latency
	// outdeg[i] is node i's successor count within the compiled range —
	// the moment pass promotes multi-consumer finishes to shared barriers
	// and takes the makespan over the outdeg-zero sinks.
	outdeg []int32
	n      int
}

// Compile translates a whole graph into a Program. Sampling the Program
// is bit-identical to Graph.SampleInto given the same generator: each
// node's Latency reproduces its distribution's Sample arithmetic and RNG
// draw order exactly.
func Compile(g *Graph) *Program { return CompileRange(g, 0, g.Len()) }

// CompileRange compiles the node slice [lo, hi) of a graph into a
// standalone Program. Dependencies on nodes before lo are dropped: the
// compiled sub-program treats them as an implicit time-zero source, so a
// sub-DAG whose only external edges come from a single barrier node
// samples the same schedule as the full graph, shifted to start at zero.
// It panics if the range is out of bounds.
func CompileRange(g *Graph, lo, hi int) *Program {
	if lo < 0 || hi < lo || hi > g.Len() {
		panic(fmt.Sprintf("dag: CompileRange [%d, %d) out of bounds for %d nodes", lo, hi, g.Len()))
	}
	edges := 0
	for _, nd := range g.nodes[lo:hi] {
		for _, d := range nd.deps {
			if d >= lo {
				edges++
			}
		}
	}
	b := newBuilder(hi-lo, edges)
	for _, nd := range g.nodes[lo:hi] {
		for _, d := range nd.deps {
			if d >= lo {
				b.Dep(d - lo)
			}
		}
		b.Add(nd.Latency)
	}
	return b.Program()
}

// builder writes a Program's columns directly, node by node in
// topological order, into storage sized exactly from the node and edge
// counts given to newBuilder. It is the only Program encoder, driven by
// CompileRange.
//
// A node is added by first declaring its dependencies with Dep, then
// closing it with Add:
//
//	b := newBuilder(3, 2)
//	src := b.Add(scaleLatency)
//	b.Dep(src)
//	mid := b.Add(initLatency)
//	b.Dep(mid)
//	b.Add(nil)
//	prog := b.Program()
type builder struct {
	p    *Program
	i, e int // nodes and edges added so far
}

// newBuilder returns a builder for a program of exactly nodes nodes and
// edges dependency edges.
func newBuilder(nodes, edges int) builder {
	// One backing array serves every int32 column (and the edge list).
	back := make([]int32, (nodes+1)+nodes+edges)
	return builder{p: &Program{
		depStart: back[: nodes+1 : nodes+1],
		outdeg:   back[nodes+1 : 2*nodes+1 : 2*nodes+1],
		deps:     back[2*nodes+1:],
		lat:      make([]Latency, nodes),
		n:        nodes,
	}}
}

// Dep records that the next node added depends on the already-added
// node d. It panics on a forward or out-of-range reference and when the
// declared edge count is exceeded.
func (b *builder) Dep(d int) {
	if uint(d) >= uint(b.i) {
		b.badDep(d)
	}
	b.p.deps[b.e] = int32(d) // past the declared edge count: out of range
	b.e++
}

// badDep panics on an invalid dependency. It is kept out of Dep so Dep
// stays small enough to inline into the per-edge loops.
//
//go:noinline
func (b *builder) badDep(d int) {
	panic(fmt.Sprintf("dag: node %d depends on invalid node %d", b.i, d))
}

// Add appends a node with the given latency (nil means zero) and the
// dependencies declared since the previous Add, returning its index. It
// panics when the declared node count is exceeded.
func (b *builder) Add(latency stats.Dist) int {
	p, i := b.p, b.i
	if i == p.n {
		panic("dag: Builder node count exceeded")
	}
	p.depStart[i+1] = int32(b.e)
	p.lat[i] = NewLatency(latency)
	b.i++
	return i
}

// Program returns the built program. It panics unless exactly the
// declared numbers of nodes and edges were added. The builder must not
// be used afterwards.
func (b *builder) Program() *Program {
	p := b.p
	if b.i != p.n || b.e != len(p.deps) {
		panic(fmt.Sprintf("dag: Builder declared %d nodes and %d edges, got %d and %d", p.n, len(p.deps), b.i, b.e))
	}
	for _, d := range p.deps {
		p.outdeg[d]++
	}
	b.p = nil
	return p
}

// Len returns the compiled node count.
func (p *Program) Len() int { return p.n }

// Sample draws one execution of the compiled graph, allocating a fresh
// timings slice. See SampleInto.
func (p *Program) Sample(r *stats.RNG) ([]Timing, float64) {
	return p.SampleInto(r, nil)
}

// SampleInto draws one execution of the compiled graph into buf (reused
// when it has sufficient capacity): each node starts at the max finish
// time of its compiled dependencies and its latency is sampled from the
// node's Latency. It returns the per-node timings and the makespan.
// Latencies consume RNG draws exactly as the distributions they encode,
// so for a full-graph Program the result is bit-identical to
// Graph.SampleInto with the same generator.
//
//rbvet:pure
//rbvet:noalloc
func (p *Program) SampleInto(r *stats.RNG, buf []Timing) ([]Timing, float64) {
	var timings []Timing
	if cap(buf) >= p.n {
		timings = buf[:p.n]
	} else {
		//rbvet:ignore noalloc — cold path: runs once per buffer size; steady-state calls reuse buf
		timings = make([]Timing, p.n)
	}
	var makespan float64
	for i := 0; i < p.n; i++ {
		start := 0.0
		for _, d := range p.deps[p.depStart[i]:p.depStart[i+1]] {
			if f := timings[d].Finish; f > start {
				start = f
			}
		}
		f := start + p.lat[i].Sample(r)
		timings[i] = Timing{Start: start, Finish: f}
		if f > makespan {
			makespan = f
		}
	}
	return timings, makespan
}
