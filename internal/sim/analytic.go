package sim

import (
	"math"

	"repro/internal/cloud"
	"repro/internal/stats"
)

// This file is the analytic (moment-propagation) estimator: the same
// segment decomposition and billing replay as the Monte-Carlo paths, but
// carrying (mean, variance) pairs instead of sample vectors. A warm
// evaluation touches no RNG, draws no samples, and allocates nothing —
// it is the sub-microsecond scoring pass the planner's batched frontier
// pruning is built on.

// segMoment is the analytic counterpart of a segment's sample vector:
// the moments of its zero-based duration, its SCALE finish (zero when
// the cluster does not grow into the stage), and its total training
// GPU-slot seconds. ok=false marks a segment whose latencies lack finite
// moments; such plans fall back to Monte-Carlo.
type segMoment struct {
	dur, scaleFin, trainSec stats.Moment
	ok                      bool
}

// segmentMoments returns the segment's analytic moments, filling its
// slot on first use. The value is a pure function of the segment (itself
// a pure function of the simulator configuration and the key), so benign
// double computation under concurrent misses is harmless.
//
//rbvet:pure
func (s *Simulator) segmentMoments(sg *segment) segMoment {
	s.mu.Lock()
	v, ok := sg.mom, sg.momFilled
	s.mu.Unlock()
	if ok {
		return v
	}
	v = sg.moments()
	s.mu.Lock()
	sg.mom, sg.momFilled = v, true
	s.mu.Unlock()
	return v
}

// moments is dag.Program.MomentsInto over the segment's program without
// the program: the same barrier decomposition, unrolled for the fixed
// segment shape, with the same Moment arithmetic in the same order.
// Every finish is base + rel, base the absolute moment of the barrier
// the first-wave TRAINs start on and r0 a first-wave TRAIN's finish
// relative to it:
//
//   - grow = 0: no SCALE; the TRAINs are sources (base zero).
//   - grow = 1: the lone INIT extends the SCALE chain; its finish
//     becomes base when it feeds several TRAINs (w >= 2), and extends
//     the chain into r0 when it feeds one.
//   - grow >= 2: the SCALE finish is a barrier the INITs share, and
//     base adds the max over the INITs, joined as one iid group.
//
// The SYNC then joins the TRAINs: a lone TRAIN extends the chain; a
// fan-out's TRAINs are one iid group; chained slots need the dominance
// step (non-negative latencies), which leaves each slot's tail, grouped
// by equal moment in tail order.
//
//rbvet:pure
//rbvet:noalloc
func (sg *segment) moments() segMoment {
	lt, nonneg, ok := sg.train.Moment()
	if !ok {
		return segMoment{}
	}
	var v segMoment
	var zero, base stats.Moment
	r0 := lt
	if sg.grow > 0 {
		ls, ns, oks := sg.scale.Moment()
		li, ni, oki := sg.init.Moment()
		if !oks || !oki {
			return segMoment{}
		}
		nonneg = nonneg && ns && ni
		v.scaleFin = zero.AddIndep(ls)
		switch {
		case sg.grow >= 2:
			base = zero.AddIndep(ls).AddIndep(joinMax(li, sg.grow, zero, 0))
		case sg.w == 1:
			r0 = ls.AddIndep(li).AddIndep(lt)
		default:
			base = zero.AddIndep(ls.AddIndep(li))
		}
	}
	// Training GPU-time is the sum of the (independent) TRAIN latencies;
	// moments add.
	for tr := 0; tr < sg.trials; tr++ {
		v.trainSec = v.trainSec.AddIndep(lt)
	}
	switch {
	case sg.trials == 1:
		v.dur = base.AddIndep(r0.AddIndep(zero))
	case sg.w == sg.trials:
		v.dur = base.AddIndep(joinMax(r0, sg.trials, zero, 0)).AddIndep(zero)
	default:
		if !nonneg {
			return segMoment{}
		}
		// Slot s's chain holds q+1 TRAINs for s < rem and q otherwise;
		// in trial order the tails run over slots rem..w-1, then 0..rem-1.
		// tail is a q-long chain's tail relative to base; abs walks the
		// chain's promoted barriers (abs_1 = base + r0, then + lt each).
		q, rem := sg.trials/sg.w, sg.trials%sg.w
		tail := base.SubIndepPrefix(base).AddIndep(r0)
		abs := base.AddIndep(r0)
		for l := 2; l <= q; l++ {
			tail = abs.SubIndepPrefix(base).AddIndep(lt)
			abs = abs.AddIndep(lt)
		}
		longTail := abs.SubIndepPrefix(base).AddIndep(lt)
		v.dur = base.AddIndep(joinMax(tail, sg.w-rem, longTail, rem)).AddIndep(zero)
	}
	v.ok = true
	return v
}

// joinMax is the moment of the max over a fork's items as the DAG
// moment pass computes it, for items given in order as n1 copies of m1
// followed by n2 copies of m2: items group by == in order of first
// occurrence, each group through stats.MaxIIDMoment, the groups through
// stats.MaxIndep. Like the pass, it skips items with a NaN mean and
// gives items with a NaN variance (equal to nothing) a group each.
//
//rbvet:pure
//rbvet:noalloc
func joinMax(m1 stats.Moment, n1 int, m2 stats.Moment, n2 int) stats.Moment {
	var j maxJoin
	if m1 == m2 {
		j.add(m1, n1+n2)
	} else {
		j.add(m1, n1)
		j.add(m2, n2)
	}
	return j.res
}

// maxJoin folds groups of a fork's items into the moment of their max.
type maxJoin struct {
	res     stats.Moment
	started bool
}

// add folds n copies of m.
func (j *maxJoin) add(m stats.Moment, n int) {
	if n == 0 || math.IsNaN(m.Mean) {
		return
	}
	g, groups := stats.MaxIIDMoment(m, n), 1
	if math.IsNaN(m.Var) {
		g, groups = m, n
	}
	for ; groups > 0; groups-- {
		if j.started {
			j.res = stats.MaxIndep(j.res, g)
		} else {
			j.res, j.started = g, true
		}
	}
}

// birthGroup is one growth event on the analytic billing stack: count
// instances born at stage-prefix moment pre plus the stage's SCALE
// finish sf. Instances of one group share a single (random) lifetime, so
// their charges are perfectly correlated and sum by scaling.
type birthGroup struct {
	pre, sf stats.Moment
	count   int
}

// AnalyticEval evaluates plans analytically against one Simulator. It
// owns the propagation scratch and the billing stack, so it is cheap to
// reuse and must not be shared across goroutines concurrently; create
// one per worker (NewAnalyticEval) or let Simulator.Estimate pool them.
type AnalyticEval struct {
	sim    *Simulator
	groups []birthGroup
	moms   []segMoment
	// cp is the candidate being scored, resolved straight to its
	// segments in the simulator's segment table; its slice is reused
	// across candidates.
	cp compiledPlan
	// scores memoizes whole evaluations under the Plan.Key encoding,
	// probed through a reused byte buffer: Estimate is deterministic, so
	// a repeat call returns the cached (Estimate, ok) pair from one map
	// probe without touching the segment table at all. The map is
	// dropped past maxAnalyticCached entries, a backstop no planner
	// frontier approaches.
	scores map[string]analyticScore
	key    []byte
}

// analyticScore is one memoized Estimate outcome (errors are not cached;
// they only arise from invalid plans on the cold path).
type analyticScore struct {
	est Estimate
	ok  bool
}

// maxAnalyticCached bounds the per-evaluator score map.
const maxAnalyticCached = 1 << 14

// NewAnalyticEval returns a fresh analytic evaluator bound to s.
func (s *Simulator) NewAnalyticEval() *AnalyticEval {
	return &AnalyticEval{sim: s}
}

// AcquireAnalyticEval returns an analytic evaluator from the simulator's
// pool, creating one when none is idle. Pair it with ReleaseAnalyticEval
// so the evaluator's warm score memo carries over to the next acquirer —
// this is what keeps repeated planner searches over one simulator at
// map-probe cost. Evaluations are pure, so reuse can never change a
// result.
func (s *Simulator) AcquireAnalyticEval() *AnalyticEval {
	if e, _ := s.anaPool.Get().(*AnalyticEval); e != nil {
		return e
	}
	return s.NewAnalyticEval()
}

// ReleaseAnalyticEval returns an evaluator obtained from
// AcquireAnalyticEval to the pool. Releasing nil is a no-op.
func (s *Simulator) ReleaseAnalyticEval(e *AnalyticEval) {
	if e != nil {
		s.anaPool.Put(e)
	}
}

// Estimate analytically predicts JCT and cost for the plan: E[JCT] and
// E[cost] in Estimate.JCT/Cost, with JCTStd/CostStd the analytic
// standard deviations of the same distributions the Monte-Carlo modes
// sample. ok=false means some latency lacks finite moments and the
// caller should fall back to a sampling estimator; the error mirrors
// Simulator.Estimate's plan validation.
//
// The evaluation is exact under deterministic latencies and
// moment-matched otherwise (see segment.moments); CostStd
// additionally treats per-group instance charges as independent, which
// the validation tests bound. It is deterministic — no RNG is consulted
// — and a warm call (cached plan and segment moments) allocates nothing.
func (e *AnalyticEval) Estimate(p Plan) (Estimate, bool, error) {
	e.key = appendPlanKey(e.key[:0], p)
	if s, hit := e.scores[string(e.key)]; hit { // no allocation: direct map probe
		return s.est, s.ok, nil
	}
	cp := &e.cp
	if err := e.sim.resolve(p, cp); err != nil {
		return Estimate{}, false, err
	}
	if cap(e.moms) < len(cp.segs) {
		e.moms = make([]segMoment, len(cp.segs))
	}
	moms := e.moms[:len(cp.segs)]
	sc := analyticScore{}
	for i, sg := range cp.segs {
		moms[i] = e.sim.segmentMoments(sg)
		if !moms[i].ok {
			e.memoize(sc)
			return Estimate{}, false, nil
		}
	}
	jct, cost := e.price(cp, moms)
	sc = analyticScore{est: Estimate{
		JCT: jct.Mean, JCTStd: jct.Std(),
		Cost: cost.Mean, CostStd: cost.Std(),
	}, ok: true}
	e.memoize(sc)
	return sc.est, sc.ok, nil
}

// memoize records the just-computed outcome for the plan key currently
// in e.key, resetting the score map if it has grown past the backstop
// bound.
func (e *AnalyticEval) memoize(sc analyticScore) {
	if e.scores == nil || len(e.scores) >= maxAnalyticCached {
		e.scores = make(map[string]analyticScore)
	}
	e.scores[string(e.key)] = sc
}

// EstimateBatch scores a whole candidate frontier in one pass over the
// shared cached segment moments, filling ests[i] and oks[i] for plans[i]
// (all three slices must have equal length). With warm caches the loop
// allocates nothing and each candidate costs microseconds — this is the
// planner's batch-scoring primitive.
func (e *AnalyticEval) EstimateBatch(plans []Plan, ests []Estimate, oks []bool) error {
	for i, p := range plans {
		est, ok, err := e.Estimate(p)
		if err != nil {
			return err
		}
		ests[i], oks[i] = est, ok
	}
	return nil
}

// appendPlanKey appends the Plan.Key encoding (4 big-endian bytes per
// stage) to dst, reusing its capacity.
func appendPlanKey(dst []byte, p Plan) []byte {
	for _, a := range p.Alloc {
		dst = append(dst, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return dst
}

// price mirrors priceSchedule with moments: stage durations chain into
// the JCT by independent summation; per-instance billing replays LIFO
// lifetimes (a group's lifetime is the stage-prefix difference minus its
// own SCALE finish — an independent-prefix subtraction, since a stage's
// duration decomposes as its SCALE finish plus an independent remainder)
// with the minimum charge applied via the Gaussian clamp; per-function
// billing sums training GPU-seconds.
func (e *AnalyticEval) price(cp *compiledPlan, moms []segMoment) (jct, cost stats.Moment) {
	pr := e.sim.cloud.Pricing
	cost = stats.Moment{Mean: float64(cp.maxInstances) * pr.DataIngressCost(e.sim.cloud.DatasetGB)}

	if pr.Billing == cloud.PerFunction {
		pg := e.sim.cloud.Instance.PricePerGPUSecond(pr.Market)
		for i, sg := range cp.segs {
			jct = jct.AddIndep(moms[i].dur)
			cost = cost.AddIndep(moms[i].trainSec.Scale(float64(sg.trainGPUs) * pg))
		}
		return jct, cost
	}

	perHour := e.sim.cloud.Instance.PricePerHour(pr.Market)
	groups := e.groups[:0]
	alive := 0
	var pre stats.Moment // absolute start moment of the current stage
	for i, sg := range cp.segs {
		want := sg.instances
		if want > alive {
			sf := stats.Moment{}
			if sg.grow > 0 {
				sf = moms[i].scaleFin
			}
			groups = append(groups, birthGroup{pre: pre, sf: sf, count: want - alive})
			alive = want
		} else {
			for alive > want {
				top := &groups[len(groups)-1]
				n := top.count
				if alive-want < n {
					n = alive - want
				}
				cost = cost.AddIndep(e.charge(*top, pre, n, perHour))
				top.count -= n
				alive -= n
				if top.count == 0 {
					groups = groups[:len(groups)-1]
				}
			}
		}
		pre = pre.AddIndep(moms[i].dur)
	}
	for _, g := range groups {
		cost = cost.AddIndep(e.charge(g, pre, g.count, perHour))
	}
	e.groups = groups[:0]
	return pre, cost
}

// charge bills n instances of one birth group dying at the stage-prefix
// moment death: lifetime = (death − birth prefix) − SCALE finish, both
// independent-prefix subtractions, clamped below by the minimum charge.
// The n lifetimes are one shared random variable, so the group total
// scales linearly (mean ×n, std ×n).
func (e *AnalyticEval) charge(g birthGroup, death stats.Moment, n int, perHour float64) stats.Moment {
	life := death.SubIndepPrefix(g.pre).SubIndepPrefix(g.sf)
	billed := stats.ClampBelow(life, e.sim.cloud.Pricing.MinChargeSeconds)
	return billed.Scale(float64(n) / 3600 * perHour)
}
