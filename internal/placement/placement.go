// Package placement implements RubberBand's placement controller (§4.4,
// Algorithm 3): it converts per-trial GPU allocations into physical
// assignments of trial workers to nodes, maximizing spatial locality.
//
// Invariants the controller maintains:
//
//   - A trial whose allocation fits on one node is placed entirely on one
//     node (co-location); larger trials are packed onto a minimal set of
//     nodes, taking whole nodes where possible.
//   - Assignments of trials whose allocation did not change are preserved
//     across scheduling epochs on a best-effort basis.
//   - Trials whose reassignment has been issued but not yet confirmed by
//     their workers are locked: their resources cannot be perturbed.
//   - When a trial cannot be placed on free capacity, already-placed
//     smaller, unlocked trials are displaced to make room; displaced
//     trials re-enter the queue for their own placement attempt.
package placement

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
)

// TrialID identifies a trial within one experiment.
type TrialID int

// Assignment is one trial's physical placement: GPUs held per node.
type Assignment map[cluster.NodeID]int

// GPUs returns the total GPUs in the assignment.
func (a Assignment) GPUs() int {
	total := 0
	for _, g := range a {
		total += g
	}
	return total
}

// Nodes returns the number of distinct nodes the assignment spans.
func (a Assignment) Nodes() int { return len(a) }

// clone returns a deep copy.
func (a Assignment) clone() Assignment {
	c := make(Assignment, len(a))
	for n, g := range a {
		c[n] = g
	}
	return c
}

// Plan maps trials to their assignments.
type Plan map[TrialID]Assignment

// clone returns a deep copy.
func (p Plan) clone() Plan {
	c := make(Plan, len(p))
	for t, a := range p {
		c[t] = a.clone()
	}
	return c
}

// equal reports whether two assignments hold the same GPUs on the same
// nodes.
func (a Assignment) equal(b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for n, g := range a {
		if b[n] != g {
			return false
		}
	}
	return true
}

// Moves counts the trials in next whose gang differs from their gang in
// prev (absent, or placed on different nodes/GPU counts) — the migration
// cost of transitioning between two placement plans. The executor reports
// it when a replanned allocation lands at a stage boundary.
func Moves(prev, next Plan) int {
	moved := 0
	for t, asg := range next {
		if !asg.equal(prev[t]) {
			moved++
		}
	}
	return moved
}

// Controller computes placement plans over scheduling epochs.
type Controller struct {
	nodeGPUs int
	current  Plan
	locked   map[TrialID]bool

	// Scratch reused by every Update, so an epoch allocates only the
	// assignments it builds: next is the plan under construction (it
	// becomes current on success), free the per-node capacity left,
	// placedNow the trials placed this epoch, queue the trials waiting.
	next      Plan
	free      map[cluster.NodeID]int
	placedNow map[TrialID]bool
	queue     []TrialID
}

// NewController returns a controller for nodes with nodeGPUs accelerators
// each. It panics if nodeGPUs < 1.
func NewController(nodeGPUs int) *Controller {
	if nodeGPUs < 1 {
		panic(fmt.Sprintf("placement: nodeGPUs = %d", nodeGPUs))
	}
	return &Controller{
		nodeGPUs:  nodeGPUs,
		current:   make(Plan),
		locked:    make(map[TrialID]bool),
		next:      make(Plan),
		free:      make(map[cluster.NodeID]int),
		placedNow: make(map[TrialID]bool),
	}
}

// Current returns a deep copy of the current placement plan.
func (c *Controller) Current() Plan { return c.current.clone() }

// Lock marks a trial's placement as in-flight: it cannot be displaced
// until Unlock (§4.4.1 "reserved" list).
func (c *Controller) Lock(t TrialID) { c.locked[t] = true }

// Unlock clears a trial's in-flight mark.
func (c *Controller) Unlock(t TrialID) { delete(c.locked, t) }

// Remove drops a trial (terminated or finished) from the plan, freeing its
// resources for the next Update. It deletes the trial from the plan the
// last Update returned.
func (c *Controller) Remove(t TrialID) {
	delete(c.current, t)
	delete(c.locked, t)
}

// allocOf returns trial t's GPU allocation from a dense allocation
// vector, or -1 when t holds none.
func allocOf(allocs []int32, t TrialID) int {
	if int(t) >= len(allocs) {
		return -1
	}
	return int(allocs[t])
}

// Update computes a placement plan satisfying allocs over the given
// nodes, implementing Algorithm 3. allocs is indexed by TrialID:
// allocs[t] is trial t's GPU count, and a negative entry means trial t
// holds no allocation. Trials already placed with an unchanged
// allocation keep their assignment; others are (re)placed best-fit in
// descending allocation order, displacing smaller unlocked trials when
// necessary. An error is returned, and the current plan left as it was,
// if total demand exceeds capacity, a trial is allocated 0 GPUs, a
// locked trial's allocation changed, or the trials cannot be packed.
//
// The returned plan is the controller's current plan, not a copy:
// Remove deletes from it and the next Update reuses its storage, so
// callers must not modify it and must copy it to keep it longer. Its
// assignments are never modified once built, and may be kept.
func (c *Controller) Update(allocs []int32, nodes []*cluster.Node) (Plan, error) {
	demand, live := 0, 0
	for t, g := range allocs {
		if g < 0 {
			continue
		}
		if g == 0 {
			return nil, fmt.Errorf("placement: trial %d allocated %d GPUs", t, g)
		}
		demand += int(g)
		live++
	}
	capacity := 0
	for _, n := range nodes {
		capacity += n.GPUs
	}
	if demand > capacity {
		return nil, fmt.Errorf("placement: demand %d GPUs exceeds capacity %d", demand, capacity)
	}

	// Start from assignments that can be preserved: trials present in the
	// current plan with an unchanged allocation and whose nodes all still
	// exist (remove_discrepancies). Preserved assignments are shared, not
	// copied: nothing modifies an assignment once it is built.
	free := c.free
	clear(free)
	for _, n := range nodes {
		free[n.ID] = n.GPUs
	}
	plan := c.next
	clear(plan)
	for t, a := range c.current {
		want := allocOf(allocs, t)
		if want < 0 {
			if c.locked[t] {
				return nil, fmt.Errorf("placement: locked trial %d removed from allocation", t)
			}
			continue
		}
		ok := a.GPUs() == want
		for nid := range a {
			if _, exists := free[nid]; !exists {
				ok = false
			}
		}
		if ok {
			plan[t] = a
		} else if c.locked[t] {
			return nil, fmt.Errorf("placement: locked trial %d needs reallocation", t)
		}
	}

	// Fast path: everything preserved.
	if len(plan) == live {
		return c.commit(plan), nil
	}

	// Compute free capacity under the preserved assignments.
	for _, a := range plan {
		for nid, g := range a {
			free[nid] -= g
			if free[nid] < 0 {
				return nil, fmt.Errorf("placement: preserved plan oversubscribes node %d", nid)
			}
		}
	}

	// Queue of trials to place, largest first (Algorithm 3's
	// sort_by_alloc descending). Trials placed during this epoch cannot
	// themselves be displaced — each queued trial gets exactly one
	// placement opportunity, which guarantees termination.
	queue := c.queue[:0]
	for t, g := range allocs {
		if _, done := plan[TrialID(t)]; g >= 0 && !done {
			queue = append(queue, TrialID(t))
		}
	}
	sortTrials(queue, allocs)

	placedNow := c.placedNow
	clear(placedNow)
	for i := 0; i < len(queue); i++ {
		t := queue[i]
		asg, displaced, err := c.place(t, int(allocs[t]), plan, free, placedNow)
		if err != nil {
			c.queue = queue[:0]
			return nil, err
		}
		plan[t] = asg
		placedNow[t] = true
		if len(displaced) > 0 {
			queue = append(queue, displaced...)
			sortTrials(queue[i+1:], allocs)
		}
	}
	c.queue = queue[:0]
	return c.commit(plan), nil
}

// commit makes the finished plan current and keeps the previous one's
// storage for the next Update to build in.
func (c *Controller) commit(plan Plan) Plan {
	c.current, c.next = plan, c.current
	return plan
}

// place assigns want GPUs to trial t, mutating plan and free. It may
// displace smaller trials — excluding locked trials and trials already
// placed this epoch — which are removed from plan (their capacity returned
// to free) and returned for re-queueing.
func (c *Controller) place(t TrialID, want int, plan Plan, free map[cluster.NodeID]int, placedNow map[TrialID]bool) (Assignment, []TrialID, error) {
	asg := make(Assignment)
	remaining := want
	var displaced []TrialID

	for remaining > 0 {
		// The unit is a full node for whole-node chunks, or the entire
		// remainder (which must then be co-located on a single node).
		unit := remaining
		if unit > c.nodeGPUs {
			unit = c.nodeGPUs
		}
		nid, ok := bestFit(free, unit)
		if !ok {
			// Displace: free the smallest displaceable trial whose
			// removal opens a node with enough room.
			victim, vok := c.pickVictim(plan, free, unit, t, placedNow)
			if !vok {
				return nil, nil, fmt.Errorf("placement: cannot fit %d GPUs for trial %d", unit, t)
			}
			for nid, g := range plan[victim] {
				free[nid] += g
			}
			delete(plan, victim)
			displaced = append(displaced, victim)
			continue
		}
		free[nid] -= unit
		asg[nid] += unit
		remaining -= unit
	}
	return asg, displaced, nil
}

// bestFit returns the node with the least free capacity that still fits
// unit GPUs.
func bestFit(free map[cluster.NodeID]int, unit int) (cluster.NodeID, bool) {
	best := cluster.NodeID(-1)
	bestFree := int(^uint(0) >> 1)
	for nid, f := range free {
		if f >= unit && (f < bestFree || (f == bestFree && nid < best)) {
			//rbvet:ignore maporder — ties on free capacity resolve to the smallest NodeID, a strict total order independent of iteration order
			best, bestFree = nid, f
		}
	}
	return best, best >= 0
}

// pickVictim chooses the smallest displaceable trial (other than t) whose
// removal would let some node fit unit GPUs, breaking equal-GPU ties by
// the smallest TrialID (mirroring bestFit and sortTrials) so the victim
// is independent of map iteration order. Locked trials and trials placed
// this epoch are not displaceable.
func (c *Controller) pickVictim(plan Plan, free map[cluster.NodeID]int, unit int, t TrialID, placedNow map[TrialID]bool) (TrialID, bool) {
	victim := TrialID(-1)
	victimGPUs := int(^uint(0) >> 1)
	for cand, asg := range plan {
		if cand == t || c.locked[cand] || placedNow[cand] {
			continue
		}
		g := asg.GPUs()
		// Keep the minimum under the (GPUs, TrialID) total order; a
		// strict order admits exactly one minimum, so any iteration
		// order converges on the same victim.
		if g > victimGPUs || (g == victimGPUs && cand > victim) {
			continue
		}
		// Would removing cand open enough room somewhere?
		for nid, held := range asg {
			if free[nid]+held >= unit {
				//rbvet:ignore maporder — selection follows the strict (GPUs, TrialID) total order established by the guard above
				victim, victimGPUs = cand, g
				break
			}
		}
	}
	return victim, victim >= 0
}

// sortTrials orders trials by allocation descending, breaking ties by ID
// for determinism. The order is strict and total, so any sort algorithm
// yields the same sequence.
func sortTrials(ts []TrialID, allocs []int32) {
	slices.SortFunc(ts, func(a, b TrialID) int {
		if c := cmp.Compare(allocs[b], allocs[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// NodesNeeded returns the minimum node count that lets trials trials of
// gpusPerTrial GPUs each be placed with full co-location: sub-node trials
// never split across nodes, super-node trials take whole nodes plus a
// shared node for any remainder. This is the cluster size the executor
// provisions for a stage, and the instance count the simulator prices.
func NodesNeeded(trials, gpusPerTrial, nodeGPUs int) int {
	if trials < 1 || gpusPerTrial < 1 || nodeGPUs < 1 {
		panic(fmt.Sprintf("placement: NodesNeeded(%d, %d, %d)", trials, gpusPerTrial, nodeGPUs))
	}
	if gpusPerTrial <= nodeGPUs {
		perNode := nodeGPUs / gpusPerTrial
		return (trials + perNode - 1) / perNode
	}
	whole := gpusPerTrial / nodeGPUs
	rem := gpusPerTrial % nodeGPUs
	n := trials * whole
	if rem > 0 {
		remPerNode := nodeGPUs / rem
		n += (trials + remPerNode - 1) / remPerNode
	}
	return n
}

// DrainOrder returns the ready nodes ordered so that draining them in
// sequence frees whole machines fastest: emptiest first. Used before
// cluster scale-down to bin-pack trials away from the nodes about to be
// released.
func (c *Controller) DrainOrder(nodes []*cluster.Node) []cluster.NodeID {
	used := make(map[cluster.NodeID]int)
	for _, a := range c.current {
		for nid, g := range a {
			used[nid] += g
		}
	}
	ids := make([]cluster.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	sort.Slice(ids, func(i, j int) bool {
		if used[ids[i]] != used[ids[j]] {
			return used[ids[i]] < used[ids[j]]
		}
		return ids[i] > ids[j] // prefer releasing newest nodes on ties
	})
	return ids
}
