package dag

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// opcode tags one node's latency distribution in a compiled Program. The
// common distributions are inlined as opcodes with their parameters in
// flat float64 arrays, so sampling them is a branch-predictable switch
// with no interface dispatch; anything else falls back to the dist table.
type opcode uint8

const (
	opDet       opcode = iota // point mass: p0
	opNormal                  // max(0, N(p0, p1))
	opLogNormal               // exp(N(p0, p1))
	opUniform                 // uniform [p0, p1)
	opExp                     // exponential with mean p0
	opPareto                  // pareto(scale=p0, alpha=p1)
	opRepeat                  // sum of cnt draws from dists[aux]
	opDist                    // opaque: dists[aux].Sample
)

// Program is a DAG in a flat structure-of-arrays form for
// repeated Monte-Carlo sampling: dependency edges in CSR layout and
// latency distributions as tagged-union opcodes with inline parameters.
// Sampling a Program visits nodes in one linear pass with no per-node
// pointer chasing and, for the built-in distribution types, no interface
// calls. A Program is immutable once built and safe for concurrent use
// by any number of goroutines (each with its own RNG and scratch buffer).
type Program struct {
	// depStart[i]..depStart[i+1] indexes deps, the CSR edge array of
	// node i's dependencies (local node indices).
	depStart []int32
	deps     []int32
	op       []opcode
	p0, p1   []float64
	// aux indexes dists for opRepeat/opDist nodes (-1 otherwise); cnt is
	// the draw count for opRepeat nodes.
	aux   []int32
	cnt   []int32
	dists []stats.Dist
	// outdeg[i] is node i's successor count within the compiled range —
	// the moment pass promotes multi-consumer finishes to shared barriers
	// and takes the makespan over the outdeg-zero sinks.
	outdeg []int32
	n      int
}

// Compile translates a whole graph into a Program. Sampling the Program
// is bit-identical to Graph.SampleInto given the same generator: opcodes
// reproduce each distribution's Sample arithmetic and RNG draw order
// exactly.
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
	b := NewBuilder(hi-lo, edges)
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

// Builder writes a Program's columns directly, node by node in
// topological order, into storage sized exactly from the node and edge
// counts given to NewBuilder. It is the only Program encoder: Compile
// drives it from a Graph, and callers that know their DAG's shape (the
// simulator's stage segments) drive it directly and never materialize
// a Graph at all.
//
// A node is added by first declaring its dependencies with Dep, then
// closing it with Add:
//
//	b := dag.NewBuilder(3, 2)
//	src := b.Add(scaleLatency)
//	b.Dep(src)
//	mid := b.Add(initLatency)
//	b.Dep(mid)
//	b.Add(nil)
//	prog := b.Program()
type Builder struct {
	p    *Program
	i, e int // nodes and edges added so far
}

// NewBuilder returns a builder for a program of exactly nodes nodes and
// edges dependency edges.
func NewBuilder(nodes, edges int) Builder {
	// One backing array serves every int32 column (and the edge list):
	// programs are built in bulk on the planner's cold path, where a
	// single allocation per program beats six.
	back := make([]int32, (nodes+1)+3*nodes+edges)
	take := func(k int) []int32 {
		s := back[:k:k]
		back = back[k:]
		return s
	}
	fl := make([]float64, 2*nodes)
	return Builder{p: &Program{
		depStart: take(nodes + 1),
		aux:      take(nodes),
		cnt:      take(nodes),
		outdeg:   take(nodes),
		deps:     take(edges),
		op:       make([]opcode, nodes),
		p0:       fl[:nodes:nodes],
		p1:       fl[nodes:],
		n:        nodes,
	}}
}

// Dep records that the next node added depends on the already-added
// node d. It panics on a forward or out-of-range reference and when the
// declared edge count is exceeded.
func (b *Builder) Dep(d int) {
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
func (b *Builder) badDep(d int) {
	panic(fmt.Sprintf("dag: node %d depends on invalid node %d", b.i, d))
}

// Add appends a node with the given latency (nil means zero) and the
// dependencies declared since the previous Add, returning its index. It
// panics when the declared node count is exceeded.
func (b *Builder) Add(latency stats.Dist) int {
	p, i := b.p, b.i
	if i == p.n {
		panic("dag: Builder node count exceeded")
	}
	p.depStart[i+1] = int32(b.e)
	p.compileOp(i, latency)
	b.i++
	return i
}

// Len returns the number of nodes added so far.
func (b *Builder) Len() int { return b.i }

// Program returns the built program. It panics unless exactly the
// declared numbers of nodes and edges were added. The builder must not
// be used afterwards.
func (b *Builder) Program() *Program {
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

// compileOp encodes one latency distribution at node slot i.
func (p *Program) compileOp(i int, d stats.Dist) {
	p.aux[i] = -1
	switch v := d.(type) {
	case nil:
		p.op[i] = opDet
	case stats.Deterministic:
		p.op[i] = opDet
		p.p0[i] = v.Value
	case stats.Normal:
		p.op[i] = opNormal
		p.p0[i], p.p1[i] = v.Mu, v.Sigma
	case stats.LogNormal:
		p.op[i] = opLogNormal
		p.p0[i], p.p1[i] = v.Mu, v.Sigma
	case stats.Uniform:
		p.op[i] = opUniform
		p.p0[i], p.p1[i] = v.Lo, v.Hi
	case stats.Exponential:
		p.op[i] = opExp
		p.p0[i] = v.MeanValue
	case stats.Pareto:
		p.op[i] = opPareto
		p.p0[i], p.p1[i] = v.Scale, v.Alpha
	case stats.Repeat:
		p.op[i] = opRepeat
		p.aux[i] = int32(len(p.dists))
		p.cnt[i] = int32(v.N)
		p.dists = append(p.dists, v.D)
	default:
		p.op[i] = opDist
		p.aux[i] = int32(len(p.dists))
		p.dists = append(p.dists, d)
	}
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
// node's opcode. It returns the per-node timings and the makespan.
// Latency opcodes consume RNG draws exactly as the distributions they
// encode, so for a full-graph Program the result is bit-identical to
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
		var lat float64
		switch p.op[i] {
		case opDet:
			lat = p.p0[i]
		case opNormal:
			lat = p.p0[i] + p.p1[i]*r.NormFloat64()
			if lat < 0 {
				lat = 0
			}
		case opLogNormal:
			lat = math.Exp(p.p0[i] + p.p1[i]*r.NormFloat64())
		case opUniform:
			lat = p.p0[i] + (p.p1[i]-p.p0[i])*r.Float64()
		case opExp:
			u := r.Float64()
			if u >= 1 {
				u = math.Nextafter(1, 0)
			}
			lat = -p.p0[i] * math.Log(1-u)
		case opPareto:
			u := r.Float64()
			if u == 0 {
				u = math.Nextafter(0, 1)
			}
			lat = p.p0[i] / math.Pow(u, 1/p.p1[i])
		case opRepeat:
			d := p.dists[p.aux[i]]
			for j := int32(0); j < p.cnt[i]; j++ {
				lat += d.Sample(r)
			}
		default:
			lat = p.dists[p.aux[i]].Sample(r)
		}
		f := start + lat
		timings[i] = Timing{Start: start, Finish: f}
		if f > makespan {
			makespan = f
		}
	}
	return timings, makespan
}
