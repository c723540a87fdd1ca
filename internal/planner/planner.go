// Package planner generates resource allocation plans for hyperparameter
// tuning jobs under a time constraint (§4.3).
//
// Four policies are provided:
//
//   - Static: the baseline from §3.2 — enumerate static cluster sizes and
//     return the cost-optimal one whose predicted JCT meets the deadline.
//   - NaiveElastic: the prior-work baseline from §6.3.1 — the cluster is
//     resized per stage but every trial keeps a fixed GPU allocation
//     across stages.
//   - Elastic: RubberBand's greedy optimizer (Algorithm 2) — warm-started
//     from the cost-optimal static allocation (and configurable multiples
//     of it), it iteratively decrements per-stage allocations, selecting
//     the candidate with the highest cost-marginal benefit (Equation 1)
//     until no candidate improves cost or all violate the deadline.
//   - MinJCT: the dual (§2, footnote 1) — the same search minimising JCT
//     under a cost budget, stepping allocations up instead of down.
//
// All four are one search driven by a goal, the only code that knows
// which half of an estimate is minimised and which is bounded. All
// policies evaluate candidates exclusively through the simulator
// (package sim), treating it as a black box.
package planner

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Result is a planning outcome: the chosen plan and its predicted
// performance.
type Result struct {
	Plan     sim.Plan
	Estimate sim.Estimate
}

// Planner searches the allocation-plan space for one job.
type Planner struct {
	// Sim predicts JCT and cost for candidate plans.
	Sim *sim.Simulator
	// Deadline is the job's time constraint in seconds.
	Deadline float64
	// MaxGPUs caps the static enumeration and therefore the peak cluster
	// size any plan may request. Zero selects a default of
	// max(64, 4 × first-stage trials).
	MaxGPUs int
	// Delta is the minimum predicted cost improvement (in dollars) for
	// the greedy loop to continue. Zero selects a small default.
	Delta float64
	// WarmStartMultipliers scales the static-optimal warm start to widen
	// the search (§4.3): the optimizer never increases allocations, so
	// each multiplier bounds a different region. Nil selects {1, 2, 3}.
	WarmStartMultipliers []int
	// DisableInstanceStep removes the instance-boundary candidates from
	// greedy generation, leaving only the paper's plain fair decrement.
	// Under per-instance billing this stalls the search on sub-instance
	// steps; exposed for the design-choice ablation.
	DisableInstanceStep bool
	// RawCostSelection selects greedy candidates by raw predicted cost
	// reduction instead of Equation 1's JCT-normalized marginal benefit;
	// exposed for the design-choice ablation.
	RawCostSelection bool
	// Workers bounds the goroutines that evaluate candidate plans
	// concurrently (independent of the simulator's own Monte-Carlo worker
	// pool). Zero or 1 evaluates serially; the planner fans out only when
	// this is above 1. Because sim.Estimate is a pure function of the
	// plan and every selection reduces in fixed candidate order, results
	// are bit-identical at any worker count.
	Workers int

	// memo caches plan evaluations across the whole search, keyed by the
	// plan's compact byte encoding (sim.Plan.Key — collision-free and
	// cheaper than formatting), so the greedy loop never re-simulates an
	// allocation it has already scored (successive iterations share most
	// of their candidate sets, as do overlapping warm-start descents).
	memoMu sync.Mutex
	memo   map[string]sim.Estimate
	// estCalls counts estimate() invocations (hits + misses), for the
	// search-efficiency diagnostics exposed by EstimateCalls/MemoLen.
	estCalls int64
	// prunedCands counts frontier candidates the analytic screen excluded
	// from Monte-Carlo estimation (see PrunedCandidates).
	prunedCands int64

	// disableAnalyticPrune turns off the analytic batch-scoring phase
	// entirely: every candidate is Monte-Carlo estimated, as in the
	// single-phase search. Tests set it to get the reference search the
	// shortlist-safety checks compare against.
	disableAnalyticPrune bool
	// disableFrontierDedupe turns off canonical-allocation memo sharing:
	// behaviorally identical candidates (allocations rounded to the same
	// fair per-trial share) are re-estimated instead of reusing each
	// other's estimates. Tests set it for the grid-equivalence check.
	disableFrontierDedupe bool
}

// memoKey returns the memo key for a plan: its canonical-allocation key
// when frontier deduplication applies, so behaviorally identical
// candidates share one evaluation. Deduplication is sound exactly when
// estimates are a function of the canonical allocation — true for the
// segment and analytic estimators, whose RNG streams are keyed by
// canonical segment tuples, and false for the full-DAG estimator, whose
// streams are keyed by the raw plan.
func (p *Planner) memoKey(plan sim.Plan) string {
	if p.disableFrontierDedupe || p.Sim.Estimator() == sim.EstimatorFull {
		return plan.Key()
	}
	return p.Sim.CanonicalPlanKey(plan)
}

// estimate evaluates a plan through the memo cache. Concurrent callers may
// race to fill the same entry; that is benign because Estimate is pure —
// both compute the identical value.
func (p *Planner) estimate(plan sim.Plan) (sim.Estimate, error) {
	atomic.AddInt64(&p.estCalls, 1)
	key := p.memoKey(plan)
	p.memoMu.Lock()
	est, ok := p.memo[key]
	p.memoMu.Unlock()
	if ok {
		return est, nil
	}
	est, err := p.Sim.Estimate(plan)
	if err != nil {
		return sim.Estimate{}, err
	}
	p.memoMu.Lock()
	if p.memo == nil {
		p.memo = make(map[string]sim.Estimate)
	}
	p.memo[key] = est
	p.memoMu.Unlock()
	return est, nil
}

// ErrInfeasible is returned when no plan within MaxGPUs meets the deadline.
var ErrInfeasible = fmt.Errorf("planner: no feasible plan within resource cap")

func (p *Planner) maxGPUs() int {
	if p.MaxGPUs > 0 {
		return p.MaxGPUs
	}
	n := 4 * p.Sim.Spec().TotalTrials()
	if n < 64 {
		n = 64
	}
	return n
}

func (p *Planner) delta() float64 {
	if p.Delta > 0 {
		return p.Delta
	}
	return 0.01
}

func (p *Planner) warmStarts() []int {
	if len(p.WarmStartMultipliers) > 0 {
		return p.WarmStartMultipliers
	}
	return []int{1, 2, 3}
}

func (p *Planner) validate() error {
	if p.Sim == nil {
		return fmt.Errorf("planner: nil simulator")
	}
	if !(p.Deadline > 0) { // also rejects NaN; +Inf is unbounded
		return fmt.Errorf("planner: deadline %v is not positive", p.Deadline)
	}
	return nil
}

// goal is what one search minimises and what it bounds. It is the only
// code that knows which half of a sim.Estimate is the objective: cost
// under a JCT bound (the deadline) for the primal policies, JCT under a
// cost bound (the budget) for the dual.
type goal struct {
	// minJCT selects the dual: minimise JCT subject to cost <= bound.
	minJCT bool
	// bound is the constraint: the deadline in seconds, or the budget in
	// dollars under minJCT.
	bound float64
	// minGain is the smallest objective improvement a greedy step must
	// buy for the search to take it.
	minGain float64
}

// costGoal is the primal goal: minimise cost within the deadline.
func (p *Planner) costGoal() goal {
	return goal{bound: p.Deadline, minGain: p.delta()}
}

// split returns e's objective and constrained values.
func (g goal) split(e sim.Estimate) (obj, con float64) {
	if g.minJCT {
		return e.JCT, e.Cost
	}
	return e.Cost, e.JCT
}

// feasible reports whether e's constrained value is not over the bound.
func (g goal) feasible(e sim.Estimate) bool {
	_, con := g.split(e)
	return !(con > g.bound)
}

// benefit is Equation 1 and its dual mirror: the objective gained per
// unit of constrained value spent moving from cur to cand. A candidate
// that gains without spending is unboundedly good; one that gains
// nothing is unboundedly bad.
func (g goal) benefit(cur, cand sim.Estimate) float64 {
	curObj, curCon := g.split(cur)
	obj, con := g.split(cand)
	gain, spend := curObj-obj, con-curCon
	if gain <= 0 {
		return math.Inf(-1)
	}
	if spend <= 0 {
		return math.Inf(1)
	}
	return gain / spend
}

// best returns the index of the feasible estimate with the lowest
// objective among those keep admits (nil admits all), ties going to the
// lowest index, or -1 when none is feasible.
func (g goal) best(ests []sim.Estimate, keep []bool) int {
	bi, bestObj := -1, 0.0
	for i, e := range ests {
		if keep != nil && !keep[i] || !g.feasible(e) {
			continue
		}
		if obj, _ := g.split(e); bi < 0 || obj < bestObj {
			bi, bestObj = i, obj
		}
	}
	return bi
}

// estimateAll evaluates the candidates keep admits (nil admits all)
// concurrently through the memo and returns their estimates in
// candidate order, or the first error in candidate order.
func (p *Planner) estimateAll(cands []sim.Plan, keep []bool) ([]sim.Estimate, error) {
	ests := make([]sim.Estimate, len(cands))
	errs := make([]error, len(cands))
	par.ForEach(len(cands), p.Workers, func(i int) {
		if keep == nil || keep[i] {
			ests[i], errs[i] = p.estimate(cands[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ests, nil
}

// bestUniform enumerates the static allocations 1..MaxGPUs that admit
// accepts (nil accepts all), screens them analytically, and returns the
// best under g. Sizes are evaluated concurrently and reduced in
// ascending order, so the result matches the serial enumeration exactly
// (ties go to the smallest cluster).
func (p *Planner) bestUniform(scr *frontierScreen, g goal, admit func(gpus int) bool) (Result, error) {
	stages := p.Sim.Spec().NumStages()
	cands := make([]sim.Plan, p.maxGPUs())
	keep := make([]bool, len(cands))
	for i := range cands {
		cands[i] = sim.Uniform(i+1, stages)
		keep[i] = admit == nil || admit(i+1)
	}
	p.pruneEnumeration(scr, cands, keep, g)
	ests, err := p.estimateAll(cands, keep)
	if err != nil {
		return Result{}, err
	}
	i := g.best(ests, keep)
	if i < 0 {
		return Result{}, ErrInfeasible
	}
	return Result{Plan: cands[i], Estimate: ests[i]}, nil
}

// PlanStatic finds the cost-optimal static allocation meeting the
// deadline by one-dimensional enumeration (the warm-start procedure of
// §4.3 and the paper's fixed-cluster baseline).
func (p *Planner) PlanStatic() (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	scr := p.newScreen()
	defer scr.release(p)
	return p.planStatic(scr, p.costGoal())
}

// planStatic is PlanStatic's body with the search's analytic screen
// threaded in, so PlanElastic shares one screen (and its warm caches)
// across the warm-start enumeration and every greedy descent.
func (p *Planner) planStatic(scr *frontierScreen, g goal) (Result, error) {
	// The closed-form mean JCT ignores provisioning overheads and
	// straggler inflation, so it lower-bounds the estimate: anything
	// already over the deadline cannot become feasible.
	return p.bestUniform(scr, g, func(gpus int) bool { return p.Sim.StaticClusterJCT(gpus) <= g.bound })
}

// PlanNaiveElastic finds the cost-optimal plan within the constrained
// space of fixed per-trial allocations: each trial holds k GPUs in every
// stage, so the cluster shrinks with the trial count but trials are never
// re-scaled. This reproduces the prior-work baseline the paper compares
// against (§6.3.1).
func (p *Planner) PlanNaiveElastic() (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	sp := p.Sim.Spec()
	// k ranges over per-trial multipliers that keep the peak cluster within
	// the cap; k = 1 is always considered.
	kMax := p.maxGPUs() / sp.TotalTrials()
	if kMax < 1 {
		kMax = 1
	}
	plans := make([]sim.Plan, kMax)
	for i := range plans {
		alloc := make([]int, sp.NumStages())
		for j := range alloc {
			alloc[j] = sp.Stage(j).Trials * (i + 1)
		}
		plans[i] = sim.Plan{Alloc: alloc}
	}
	ests, err := p.estimateAll(plans, nil)
	if err != nil {
		return Result{}, err
	}
	i := p.costGoal().best(ests, nil)
	if i < 0 {
		return Result{}, ErrInfeasible
	}
	return Result{Plan: plans[i], Estimate: ests[i]}, nil
}

// PlanElastic runs RubberBand's greedy optimizer (Algorithm 2) from each
// warm start and returns the cheapest feasible plan found. The result is
// guaranteed to predict no worse than the cost-optimal static allocation,
// since that allocation is itself a warm start.
func (p *Planner) PlanElastic() (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	scr := p.newScreen()
	defer scr.release(p)
	g := p.costGoal()
	staticBest, err := p.planStatic(scr, g)
	if err != nil {
		return Result{}, err
	}
	best := staticBest
	maxGPUs := p.maxGPUs()
	for _, mult := range p.warmStarts() {
		warm := staticBest.Plan.Clone()
		for i := range warm.Alloc {
			warm.Alloc[i] *= mult
			if warm.Alloc[i] > maxGPUs {
				warm.Alloc[i] = maxGPUs
			}
		}
		warmEst, err := p.estimate(warm)
		if err != nil {
			return Result{}, err
		}
		if !g.feasible(warmEst) {
			// An inflated warm start can blow the deadline through
			// added provisioning overhead; skip it. Multiplier 1 is
			// staticBest itself, which is always feasible.
			continue
		}
		res, err := p.descend(scr, g, Result{Plan: warm, Estimate: warmEst})
		if err != nil {
			return Result{}, err
		}
		if res.Estimate.JCT <= p.Deadline && res.Estimate.Cost < best.Estimate.Cost {
			best = res
		}
	}
	return best, nil
}

// descend is the greedy loop of Algorithm 2 under goal g, two-phased:
// each iteration analytically screens the neighbour set (dropping steps
// that surely break the bound or surely cannot improve the objective),
// evaluates the shortlist concurrently (memoized, so neighbours shared
// with earlier iterations cost nothing), and selects the step with the
// highest benefit serially in candidate order, keeping the search
// deterministic at any worker count. The cost goal steps allocations
// down, the JCT goal steps them up; the loop stops when no neighbour is
// feasible or the best one gains less than g.minGain.
func (p *Planner) descend(scr *frontierScreen, g goal, start Result) (Result, error) {
	cur := start
	sp := p.Sim.Spec()
	gpn := p.Sim.Cloud().Instance.GPUs
	if p.DisableInstanceStep && !g.minJCT {
		gpn = 0
	}
	maxGPUs := p.maxGPUs()
	for {
		cands := neighbours(cur.Plan, sp, gpn, g.minJCT, maxGPUs)
		if len(cands) == 0 {
			return cur, nil
		}
		keep := make([]bool, len(cands))
		for i := range keep {
			keep[i] = true
		}
		p.pruneDescentStep(scr, cands, keep, cur, g)
		ests, err := p.estimateAll(cands, keep)
		if err != nil {
			return Result{}, err
		}
		bestIdx, bestBenefit := -1, math.Inf(-1)
		for i, est := range ests {
			if !keep[i] || !g.feasible(est) {
				continue
			}
			benefit := g.benefit(cur.Estimate, est)
			if p.RawCostSelection && !g.minJCT {
				benefit = cur.Estimate.Cost - est.Cost
			}
			if benefit > bestBenefit {
				bestIdx, bestBenefit = i, benefit
			}
		}
		if bestIdx < 0 {
			return cur, nil // every neighbour breaks the bound
		}
		curObj, _ := g.split(cur.Estimate)
		if obj, _ := g.split(ests[bestIdx]); curObj-obj < g.minGain {
			return cur, nil // no neighbour improves the objective enough
		}
		cur = Result{Plan: cands[bestIdx], Estimate: ests[bestIdx]}
	}
}

// neighbours produces the one-stage steps from cur (§4.3): per stage,
// down (up when up is set) to (a) the next fair value — a factor or
// multiple of the trial count, so resources always divide evenly — and
// (b) the nearest fair value that releases (adds) at least one whole
// instance of gpn GPUs. Step (b) matters under per-instance billing,
// where cost only changes at instance boundaries: without it the search
// stalls on sub-instance steps that change the stage's speed without
// changing any billed machine. gpn 0 disables step (b); upward steps
// stay within maxGPUs. Steps on different stages always differ, so (b)
// is a duplicate only when it equals (a) on the same stage.
func neighbours(cur sim.Plan, sp *spec.ExperimentSpec, gpn int, up bool, maxGPUs int) []sim.Plan {
	var out []sim.Plan
	add := func(i, v int) {
		q := cur.Clone()
		q.Alloc[i] = v
		out = append(out, q)
	}
	for i, a := range cur.Alloc {
		trials := sp.Stage(i).Trials
		var step, inst int // 0: no such step
		if up {
			step, _ = fairCeil(a+1, trials, maxGPUs)
			if gpn > 0 {
				// The first allocation on a new instance.
				inst, _ = fairCeil((a+gpn-1)/gpn*gpn+1, trials, maxGPUs)
			}
		} else {
			step, _ = fairFloor(a-1, trials)
			if gpn > 0 {
				if n := (a + gpn - 1) / gpn; n > 1 {
					inst, _ = fairFloor((n-1)*gpn, trials)
				}
			}
		}
		if step > 0 {
			add(i, step)
		}
		if inst > 0 && inst != step {
			add(i, inst)
		}
	}
	return out
}

// fairFloor returns the largest allocation v <= max that divides trials
// evenly (factor or multiple), and whether one exists. When max >= trials
// the answer is the largest multiple of trials not exceeding max (every
// divisor of trials is no larger); below that only divisors of trials
// qualify, and the largest one <= max is found by walking divisor pairs
// up to √trials — O(√trials) instead of the O(max) downward scan this
// replaces.
func fairFloor(max, trials int) (int, bool) {
	if max < 1 {
		return 0, false
	}
	if max >= trials {
		return max - max%trials, true
	}
	best := 1 // 1 divides every trial count and 1 <= max
	for d := 1; d*d <= trials; d++ {
		if trials%d != 0 {
			continue
		}
		if d <= max && d > best {
			best = d
		}
		if q := trials / d; q <= max && q > best {
			best = q
		}
	}
	return best, true
}

// fairCeil returns the smallest allocation v in [min, max] that is a
// factor or multiple of trials, and whether one exists.
func fairCeil(min, trials, max int) (int, bool) {
	for v := min; v <= max; v++ {
		if v%trials == 0 || trials%v == 0 {
			return v, true
		}
	}
	return 0, false
}

// MemoLen reports the number of distinct plans the search has simulated so
// far; together with EstimateCalls it quantifies how much work the memo
// cache saved.
func (p *Planner) MemoLen() int {
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	return len(p.memo)
}

// EstimateCalls reports the total number of plan evaluations requested by
// the search, counting memo hits. EstimateCalls - MemoLen evaluations were
// answered from cache without re-simulation.
func (p *Planner) EstimateCalls() int64 { return atomic.LoadInt64(&p.estCalls) }
