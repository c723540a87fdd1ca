package placement

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

// mkNodes builds n nodes with gpus GPUs each.
func mkNodes(n, gpus int) []*cluster.Node {
	out := make([]*cluster.Node, n)
	for i := range out {
		out[i] = &cluster.Node{ID: cluster.NodeID(i), GPUs: gpus}
	}
	return out
}

// checkPlan verifies structural invariants: exact allocations, no node
// oversubscription, and co-location of sub-node trials.
func checkPlan(t *testing.T, plan Plan, allocs map[TrialID]int, nodes []*cluster.Node, nodeGPUs int) {
	t.Helper()
	if len(plan) != len(allocs) {
		t.Fatalf("plan covers %d trials, want %d", len(plan), len(allocs))
	}
	used := make(map[cluster.NodeID]int)
	capacity := make(map[cluster.NodeID]int)
	for _, n := range nodes {
		capacity[n.ID] = n.GPUs
	}
	for tr, want := range allocs {
		asg, ok := plan[tr]
		if !ok {
			t.Fatalf("trial %d unplaced", tr)
		}
		if asg.GPUs() != want {
			t.Fatalf("trial %d got %d GPUs, want %d", tr, asg.GPUs(), want)
		}
		if want <= nodeGPUs && asg.Nodes() != 1 {
			t.Fatalf("trial %d (%d GPUs) spans %d nodes, want 1", tr, want, asg.Nodes())
		}
		for nid, g := range asg {
			if _, exists := capacity[nid]; !exists {
				t.Fatalf("trial %d placed on unknown node %d", tr, nid)
			}
			used[nid] += g
		}
	}
	for nid, u := range used {
		if u > capacity[nid] {
			t.Fatalf("node %d oversubscribed: %d > %d", nid, u, capacity[nid])
		}
	}
}

// dense converts a sparse trial → GPUs map into the allocation vector
// Update takes, with -1 for the trials the map leaves out.
func dense(allocs map[TrialID]int) []int32 {
	n := 0
	for t := range allocs {
		n = max(n, int(t)+1)
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = -1
	}
	for t, g := range allocs {
		v[t] = int32(g)
	}
	return v
}

func TestNewControllerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewController(0)
}

func TestSimplePlacement(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(2, 4)
	allocs := map[TrialID]int{0: 2, 1: 2, 2: 4}
	plan, err := c.Update(dense(allocs), nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes, 4)
	// Trials 0 and 1 must share a node so trial 2 gets a whole one.
	if plan[2].Nodes() != 1 {
		t.Fatalf("trial 2 fragmented: %v", plan[2])
	}
}

func TestWholeNodeTrials(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(3, 4)
	allocs := map[TrialID]int{0: 8, 1: 4}
	plan, err := c.Update(dense(allocs), nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes, 4)
	if plan[0].Nodes() != 2 {
		t.Fatalf("8-GPU trial spans %d nodes, want exactly 2", plan[0].Nodes())
	}
}

func TestDemandExceedsCapacity(t *testing.T) {
	c := NewController(4)
	if _, err := c.Update(dense(map[TrialID]int{0: 9}), mkNodes(2, 4)); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestZeroAllocationRejected(t *testing.T) {
	c := NewController(4)
	if _, err := c.Update(dense(map[TrialID]int{0: 0}), mkNodes(1, 4)); err == nil {
		t.Fatal("zero allocation accepted")
	}
}

func TestPreservationAcrossEpochs(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(4, 4)
	allocs := map[TrialID]int{0: 4, 1: 4, 2: 4, 3: 4}
	plan1, err := c.Update(dense(allocs), nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Trial 3 finishes; the rest keep their allocation. Their placements
	// must be untouched.
	delete(allocs, 3)
	plan2, err := c.Update(dense(allocs), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for tr := TrialID(0); tr < 3; tr++ {
		for nid, g := range plan1[tr] {
			if plan2[tr][nid] != g {
				t.Fatalf("trial %d moved: %v -> %v", tr, plan1[tr], plan2[tr])
			}
		}
	}
}

func TestReallocationTriggersMove(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(4, 4)
	plan1, err := c.Update(dense(map[TrialID]int{0: 2, 1: 2, 2: 2, 3: 2}), nodes)
	if err != nil {
		t.Fatal(err)
	}
	_ = plan1
	// Stage transition: two survivors double their allocation.
	allocs := map[TrialID]int{0: 4, 1: 4}
	plan2, err := c.Update(dense(allocs), nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan2, allocs, nodes, 4)
	// Each survivor is co-located on a single node (Table 1's property).
	for tr, asg := range plan2 {
		if asg.Nodes() != 1 {
			t.Fatalf("trial %d not co-located: %v", tr, asg)
		}
	}
}

func TestDisplacementMakesRoom(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(2, 4)
	// Two small trials land anywhere.
	if _, err := c.Update(dense(map[TrialID]int{10: 1, 11: 1}), nodes); err != nil {
		t.Fatal(err)
	}
	// Now a 4-GPU trial arrives; if the small trials sit on different
	// nodes, one must be displaced so the big trial gets a full node.
	allocs := map[TrialID]int{10: 1, 11: 1, 12: 4}
	plan, err := c.Update(dense(allocs), nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes, 4)
	if plan[12].Nodes() != 1 {
		t.Fatalf("big trial fragmented: %v", plan[12])
	}
}

func TestLockedTrialNotDisplaced(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(2, 4)
	if _, err := c.Update(dense(map[TrialID]int{0: 3, 1: 3}), nodes); err != nil {
		t.Fatal(err)
	}
	c.Lock(0)
	c.Lock(1)
	// A 4-GPU trial cannot be placed without displacing a locked trial.
	if _, err := c.Update(dense(map[TrialID]int{0: 3, 1: 3, 2: 4}), nodes); err == nil {
		t.Fatal("placement succeeded despite locked trials blocking")
	}
	// After unlocking, displacement succeeds... but capacity (3+3+4=10)
	// exceeds 8, so shrink trial 1 away first.
	c.Unlock(0)
	c.Unlock(1)
	allocs := map[TrialID]int{0: 3, 2: 4}
	plan, err := c.Update(dense(allocs), nodes)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes, 4)
}

func TestLockedTrialReallocationErrors(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(1, 4)
	if _, err := c.Update(dense(map[TrialID]int{0: 2}), nodes); err != nil {
		t.Fatal(err)
	}
	c.Lock(0)
	if _, err := c.Update(dense(map[TrialID]int{0: 4}), nodes); err == nil {
		t.Fatal("locked reallocation accepted")
	}
	if _, err := c.Update(dense(map[TrialID]int{}), nodes); err == nil {
		t.Fatal("locked removal accepted")
	}
}

func TestRemove(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(1, 4)
	if _, err := c.Update(dense(map[TrialID]int{0: 4}), nodes); err != nil {
		t.Fatal(err)
	}
	c.Remove(0)
	if len(c.Current()) != 0 {
		t.Fatal("Remove left placement behind")
	}
	// Freed capacity is immediately reusable.
	plan, err := c.Update(dense(map[TrialID]int{1: 4}), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if plan[1].GPUs() != 4 {
		t.Fatalf("plan %v", plan)
	}
}

func TestNodeRemovalForcesReplacement(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(2, 4)
	if _, err := c.Update(dense(map[TrialID]int{0: 4, 1: 4}), nodes); err != nil {
		t.Fatal(err)
	}
	// Node 1 is drained away; trial on it must be replaced onto node 0.
	allocs := map[TrialID]int{0: 4}
	plan, err := c.Update(dense(allocs), nodes[:1])
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, plan, allocs, nodes[:1], 4)
}

func TestDrainOrderPrefersEmptyNodes(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(3, 4)
	if _, err := c.Update(dense(map[TrialID]int{0: 4, 1: 2}), nodes); err != nil {
		t.Fatal(err)
	}
	order := c.DrainOrder(nodes)
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	// First node to drain must be the one with no placement.
	used := map[cluster.NodeID]int{}
	for _, a := range c.Current() {
		for nid, g := range a {
			used[nid] += g
		}
	}
	if used[order[0]] != 0 {
		t.Fatalf("drain order %v starts with used node (%d GPUs)", order, used[order[0]])
	}
	if used[order[2]] < used[order[1]] {
		t.Fatalf("drain order %v not emptiest-first", order)
	}
}

func TestCurrentIsCopy(t *testing.T) {
	c := NewController(4)
	nodes := mkNodes(1, 4)
	if _, err := c.Update(dense(map[TrialID]int{0: 2}), nodes); err != nil {
		t.Fatal(err)
	}
	snap := c.Current()
	snap[0][cluster.NodeID(0)] = 99
	if c.Current()[0][cluster.NodeID(0)] != 2 {
		t.Fatal("Current exposed internal state")
	}
}

// Property: for random workloads Update either errors (genuine bin-packing
// infeasibility) or yields a valid plan — exact totals, no
// oversubscription, sub-node trials co-located.
func TestQuickPlacementInvariants(t *testing.T) {
	f := func(rawAllocs []uint8, nodesRaw uint8) bool {
		nodeGPUs := 8
		nNodes := int(nodesRaw%6) + 1
		nodes := mkNodes(nNodes, nodeGPUs)
		capacity := nNodes * nodeGPUs

		c := NewController(nodeGPUs)
		allocs := make(map[TrialID]int)
		total := 0
		for i, raw := range rawAllocs {
			if i >= 12 {
				break
			}
			g := int(raw%uint8(nodeGPUs)) + 1
			if total+g > capacity {
				continue
			}
			allocs[TrialID(i)] = g
			total += g
		}
		if len(allocs) == 0 {
			return true
		}
		plan, err := c.Update(dense(allocs), nodes)
		if err != nil {
			return true // fragmentation can make co-location impossible
		}
		used := make(map[cluster.NodeID]int)
		for tr, want := range allocs {
			asg := plan[tr]
			if asg.GPUs() != want {
				return false
			}
			if want <= nodeGPUs && asg.Nodes() != 1 {
				return false
			}
			for nid, g := range asg {
				used[nid] += g
			}
		}
		for _, u := range used {
			if u > nodeGPUs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: fair workloads — equal per-trial allocations over NodesNeeded
// nodes, the shape the executor always produces — must always place.
func TestQuickFairWorkloadsAlwaysPlace(t *testing.T) {
	f := func(trialsRaw, perRaw, gpnRaw uint8) bool {
		trials := int(trialsRaw%16) + 1
		gpn := []int{1, 2, 4, 8}[gpnRaw%4]
		per := int(perRaw%16) + 1
		nodes := mkNodes(NodesNeeded(trials, per, gpn), gpn)
		c := NewController(gpn)
		allocs := make(map[TrialID]int, trials)
		for i := 0; i < trials; i++ {
			allocs[TrialID(i)] = per
		}
		plan, err := c.Update(dense(allocs), nodes)
		if err != nil {
			return false
		}
		for _, want := range allocs {
			if want <= gpn {
				// Co-location invariant for sub-node trials.
				for tr := range allocs {
					if plan[tr].Nodes() != 1 && allocs[tr] <= gpn {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNodesNeeded(t *testing.T) {
	cases := []struct{ trials, per, gpn, want int }{
		{32, 1, 4, 8}, // Table 3 stage 0: 32 trials x 1 GPU on 4-GPU nodes
		{10, 2, 4, 5}, // Table 3 stage 1
		{3, 4, 4, 3},  // Table 3 stage 2 (one node per trial)
		{1, 8, 4, 2},  // Table 3 stage 3 (survivor spans 2 nodes)
		{4, 3, 4, 4},  // non-dividing: one 3-GPU trial per 4-GPU node
		{2, 6, 4, 3},  // 6 = 4+2: whole node each, remainders share a node
		{1, 1, 8, 1},  //
		{5, 8, 8, 5},  // whole-node trials
		{3, 12, 8, 6}, // 12 = 8+4: 3 whole + remainder 4 -> 2 per node? 8/4=2 -> ceil(3/2)=2 -> 5? see below
	}
	for _, c := range cases {
		got := NodesNeeded(c.trials, c.per, c.gpn)
		if c.trials == 3 && c.per == 12 {
			// 3 whole nodes + remainders of 4 GPUs each, two of which
			// share one node: 3 + 2 = 5.
			if got != 5 {
				t.Errorf("NodesNeeded(3,12,8) = %d, want 5", got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("NodesNeeded(%d,%d,%d) = %d, want %d", c.trials, c.per, c.gpn, got, c.want)
		}
	}
}

func TestNodesNeededPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NodesNeeded(0, 1, 1)
}

// Property: two consecutive Updates with identical allocations yield the
// identical plan (stability).
func TestQuickPlacementStable(t *testing.T) {
	f := func(rawAllocs []uint8) bool {
		nodeGPUs := 4
		nodes := mkNodes(8, nodeGPUs)
		c := NewController(nodeGPUs)
		allocs := make(map[TrialID]int)
		total := 0
		for i, raw := range rawAllocs {
			if i >= 8 {
				break
			}
			g := int(raw%4) + 1
			if total+g > 32 {
				continue
			}
			allocs[TrialID(i)] = g
			total += g
		}
		if len(allocs) == 0 {
			return true
		}
		p1, err := c.Update(dense(allocs), nodes)
		if err != nil {
			return false
		}
		p2, err := c.Update(dense(allocs), nodes)
		if err != nil {
			return false
		}
		for tr, a1 := range p1 {
			a2 := p2[tr]
			if len(a1) != len(a2) {
				return false
			}
			for nid, g := range a1 {
				if a2[nid] != g {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPickVictimTieDeterministic forces a displacement whose two victim
// candidates hold the same GPU count and checks that the controller
// breaks the tie by TrialID — the same victim on every run, regardless
// of map iteration order. (Before the (GPUs, TrialID) total order,
// first-seen-in-map-order won and identical inputs produced different
// plans across runs.)
func TestPickVictimTieDeterministic(t *testing.T) {
	var ref Plan
	for run := 0; run < 50; run++ {
		c := NewController(2)
		nodes := mkNodes(2, 2)

		// Epoch 1 fills both nodes so that trial 10 lands on node 0 and
		// trial 98 on node 1.
		first := map[TrialID]int{10: 1, 20: 1, 98: 1, 99: 1}
		if _, err := c.Update(dense(first), nodes); err != nil {
			t.Fatal(err)
		}
		c.Remove(20)
		c.Remove(99)

		// Epoch 2: trial 30 needs a whole node; displacing either trial
		// 10 or trial 98 (1 GPU each — a tie) would free one. The victim
		// must always be trial 10, the smaller ID.
		second := map[TrialID]int{10: 1, 98: 1, 30: 2}
		plan, err := c.Update(dense(second), nodes)
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, plan, second, nodes, 2)
		var tenNode, ninetyEightNode cluster.NodeID = -1, -1
		for nid := range plan[10] {
			tenNode = nid
		}
		for nid := range plan[98] {
			ninetyEightNode = nid
		}
		if ninetyEightNode != 1 {
			t.Fatalf("run %d: trial 98 moved to node %d; only trial 10 (smaller ID) should be displaced", run, ninetyEightNode)
		}
		if tenNode != 1 {
			t.Fatalf("run %d: trial 10 on node %d, want displaced to node 1", run, tenNode)
		}
		if ref == nil {
			ref = plan
		} else if !plansEqual(ref, plan) {
			t.Fatalf("run %d: plan differs from run 0:\n  got  %v\n  want %v", run, plan, ref)
		}
	}
}

// plansEqual compares two plans structurally.
func plansEqual(a, b Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for tr, asg := range a {
		other, ok := b[tr]
		if !ok || len(asg) != len(other) {
			return false
		}
		for nid, g := range asg {
			if other[nid] != g {
				return false
			}
		}
	}
	return true
}

func TestMoves(t *testing.T) {
	prev := Plan{
		0: {0: 4},
		1: {1: 2},
		2: {1: 2},
	}
	next := Plan{
		0: {0: 4},       // unchanged
		1: {2: 2},       // moved node
		2: {1: 2, 2: 2}, // grew
		3: {3: 4},       // new trial
	}
	if got := Moves(prev, next); got != 3 {
		t.Fatalf("Moves = %d, want 3", got)
	}
	if got := Moves(prev, prev); got != 0 {
		t.Fatalf("Moves(p, p) = %d, want 0", got)
	}
	if got := Moves(Plan{}, prev); got != len(prev) {
		t.Fatalf("Moves from empty = %d, want %d", got, len(prev))
	}
	// Trials dropped from next don't count: only next's gangs migrate.
	if got := Moves(prev, Plan{0: {0: 4}}); got != 0 {
		t.Fatalf("Moves after termination = %d, want 0", got)
	}
}

// handoffAllocs measures one slot hand-off Update with placed 1-GPU
// trials on 16 four-GPU nodes: the trial after the idle one leaves and
// the idle one takes a slot on the same nodes, so every measured Update
// has the same shape.
func handoffAllocs(t *testing.T, placed int) float64 {
	t.Helper()
	nodes := mkNodes(16, 4)
	c := NewController(4)
	allocs := make([]int32, placed+1)
	for i := range allocs {
		allocs[i] = 1
	}
	idle := placed
	allocs[idle] = -1
	if _, err := c.Update(allocs, nodes); err != nil {
		t.Fatal(err)
	}
	var err error
	n := testing.AllocsPerRun(50, func() {
		out := (idle + 1) % len(allocs)
		c.Remove(TrialID(out))
		allocs[out], allocs[idle] = -1, 1
		idle = out
		_, err = c.Update(allocs, nodes)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestHandoffUpdateAllocs: a slot hand-off allocates only the one
// assignment it builds, however many trials stay placed — Update shares
// the preserved assignments instead of deep-copying them and builds the
// plan in reused storage.
func TestHandoffUpdateAllocs(t *testing.T) {
	few, many := handoffAllocs(t, 8), handoffAllocs(t, 64)
	t.Logf("hand-off Update: %.0f allocs with 8 trials placed, %.0f with 64", few, many)
	if few != many {
		t.Errorf("hand-off Update allocates %.0f times with 8 trials placed but %.0f with 64", few, many)
	}
}
