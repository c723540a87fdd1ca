// Package dag implements RubberBand's DAG-based execution model (§4.2).
//
// A job's execution over a given resource allocation plan is represented
// as a directed acyclic graph of tasks: SCALE (provision resources),
// INIT_INSTANCE (initialize a provisioned instance), TRAIN (train one
// trial for a stage's iterations at its allocated GPUs) and SYNC (the
// stage-end barrier where trials are compared and pruned). Each node
// carries a latency distribution; Monte-Carlo sampling of the critical
// path (Algorithm 1) predicts the job completion time, and per-node
// timings feed the cost models in package sim.
package dag

import (
	"fmt"

	"repro/internal/stats"
)

// Kind enumerates the task types of the execution model.
type Kind int

const (
	// Scale is a system task: a blocking cluster-provisioning request.
	Scale Kind = iota
	// InitInstance is a system task: per-instance initialization after
	// provisioning (dependency install, cluster join).
	InitInstance
	// Train is a trial task: train one trial for a stage's iteration
	// assignment at its allocated GPUs.
	Train
	// Sync is the stage-end synchronization barrier: evaluate trial
	// quality, promote the top fraction, terminate the rest.
	Sync
)

// String returns the node-type name used in the paper.
func (k Kind) String() string {
	switch k {
	case Scale:
		return "SCALE"
	case InitInstance:
		return "INIT_INSTANCE"
	case Train:
		return "TRAIN"
	case Sync:
		return "SYNC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one task in the execution model.
type Node struct {
	// ID is the node's index in its Graph, assigned by AddNode.
	ID int
	// Kind is the task type.
	Kind Kind
	// Stage is the 0-based stage this node belongs to.
	Stage int
	// Trial is the trial index within the experiment for Train nodes
	// (-1 otherwise).
	Trial int
	// GPUs is the compute allocated to a Train node (0 otherwise).
	GPUs int
	// Latency is the node's execution-latency distribution.
	Latency stats.Dist
	// deps are the IDs of nodes that must finish before this one starts.
	deps []int
}

// Deps returns a copy of the node's dependency IDs.
func (n *Node) Deps() []int { return append([]int(nil), n.deps...) }

// Graph is a DAG of tasks. Nodes are added in topological order by
// construction: a node may only depend on previously added nodes, which
// both guarantees acyclicity and makes sampling a single linear pass.
type Graph struct {
	nodes []*Node
	// block is the current chunk of the node arena. Nodes live in
	// fixed-capacity chunks that are never regrown, so *Node pointers
	// stay stable while amortizing one heap allocation over
	// graphBlockSize nodes.
	block []Node
	// depArena backs every node's dependency list. Growth may relocate
	// the arena, which is safe: already-issued deps slices keep their
	// values in the old array, and full-capacity slicing prevents any
	// aliased append.
	depArena []int
}

// graphBlockSize is the node-arena chunk size.
const graphBlockSize = 64

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node with the given dependencies and returns it.
// It panics if a dependency refers to a node not yet added (which would
// create a cycle or a dangling edge).
func (g *Graph) AddNode(kind Kind, stage, trial, gpus int, latency stats.Dist, deps ...int) *Node {
	id := len(g.nodes)
	for _, d := range deps {
		if d < 0 || d >= id {
			panic(fmt.Sprintf("dag: node %d depends on invalid node %d", id, d))
		}
	}
	if latency == nil {
		latency = stats.Deterministic{Value: 0}
	}
	lo := len(g.depArena)
	g.depArena = append(g.depArena, deps...)
	if len(g.block) == cap(g.block) {
		g.block = make([]Node, 0, graphBlockSize)
	}
	g.block = append(g.block, Node{
		ID:      id,
		Kind:    kind,
		Stage:   stage,
		Trial:   trial,
		GPUs:    gpus,
		Latency: latency,
		deps:    g.depArena[lo:len(g.depArena):len(g.depArena)],
	})
	n := &g.block[len(g.block)-1]
	g.nodes = append(g.nodes, n)
	return n
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// Nodes returns the node list in topological (insertion) order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Frontier returns the IDs of nodes with no dependents (out-degree zero) —
// the set new stage nodes extend from during construction.
func (g *Graph) Frontier() []int {
	hasDependent := make([]bool, len(g.nodes))
	for _, n := range g.nodes {
		for _, d := range n.deps {
			hasDependent[d] = true
		}
	}
	var out []int
	for id, dep := range hasDependent {
		if !dep {
			out = append(out, id)
		}
	}
	return out
}

// Timing records one sampled execution of a node.
type Timing struct {
	Start, Finish float64
}

// Sample draws one execution of the whole graph (the inner loop of
// Algorithm 1): node latencies are sampled independently and each node
// starts at the max finish time of its dependencies. It returns per-node
// timings and the makespan. An empty graph has zero makespan.
func (g *Graph) Sample(r *stats.RNG) ([]Timing, float64) {
	return g.SampleInto(r, nil)
}

// SampleInto is Sample with a caller-provided scratch buffer: buf is
// reused when it has sufficient capacity, otherwise a fresh slice is
// allocated. The returned slice aliases buf when reused, so callers must
// not retain timings from an earlier draw across calls. Monte-Carlo loops
// use this to sample allocation-free after the first draw.
func (g *Graph) SampleInto(r *stats.RNG, buf []Timing) ([]Timing, float64) {
	var timings []Timing
	if cap(buf) >= len(g.nodes) {
		timings = buf[:len(g.nodes)]
	} else {
		timings = make([]Timing, len(g.nodes))
	}
	var makespan float64
	for i, n := range g.nodes {
		start := 0.0
		for _, d := range n.deps {
			if f := timings[d].Finish; f > start {
				start = f
			}
		}
		lat := n.Latency.Sample(r)
		timings[i] = Timing{Start: start, Finish: start + lat}
		if timings[i].Finish > makespan {
			makespan = timings[i].Finish
		}
	}
	return timings, makespan
}

// CriticalPath returns the node IDs on the critical path of one sampled
// schedule, from first to last, along with the makespan. Deterministic
// given the timings produced by Sample.
func (g *Graph) CriticalPath(timings []Timing) []int {
	if len(timings) != len(g.nodes) || len(g.nodes) == 0 {
		return nil
	}
	// Find the node with the latest finish, then walk back through the
	// dependency whose finish equals this node's start.
	last := 0
	for i := range timings {
		if timings[i].Finish > timings[last].Finish {
			last = i
		}
	}
	var rev []int
	cur := last
	for {
		rev = append(rev, cur)
		n := g.nodes[cur]
		if len(n.deps) == 0 {
			break
		}
		next := -1
		for _, d := range n.deps {
			if next == -1 || timings[d].Finish > timings[next].Finish {
				next = d
			}
		}
		if timings[next].Finish < timings[cur].Start-1e-12 {
			break // this node waited on nothing; path starts here
		}
		cur = next
	}
	// Reverse.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
