package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dag"
	"repro/internal/placement"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Estimate is the simulator's prediction for one plan.
type Estimate struct {
	// JCT is the expected job completion time in seconds, and JCTStd its
	// sample standard deviation across Monte-Carlo draws.
	JCT, JCTStd float64
	// Cost is the expected total dollar cost (compute plus data ingress)
	// and CostStd its standard deviation.
	Cost, CostStd float64
}

// Simulator predicts JCT and cost for allocation plans over one job.
// Construct with New; the zero value is not usable.
//
// A Simulator's configuration is immutable after construction and it is
// safe for concurrent use by multiple goroutines. Its only mutable state
// is the mutex-guarded segment table of closed-form stage segments, with
// their lazily filled sample vectors and moments, all pure functions of
// their keys; so Estimate and Breakdown remain pure functions of the
// simulator's configuration and the plan: every Monte-Carlo draw derives
// a private RNG stream from the construction-time seed state, keyed by
// (stream family, sample index), and results do not depend on table
// state, call order, goroutine, or worker count.
type Simulator struct {
	spec    *spec.ExperimentSpec
	profile TrainProfile
	cloud   CloudProfile
	samples int
	// workers bounds the Monte-Carlo fan-out; <= 1 samples serially.
	workers int
	// estimator selects the Monte-Carlo stream discipline (see
	// EstimatorMode).
	estimator EstimatorMode
	// root is a snapshot of the seeding generator's state at construction.
	// It is never advanced: streams are derived from it with
	// stats.RNG.Stream, which is pure, so concurrent derivation is safe.
	root stats.RNG

	// mu guards the segment table and its entries' lazy slots. Misses are
	// computed outside the lock: every value is a pure function of its
	// key and the configuration, so double computation is benign.
	mu sync.Mutex
	// segs is the segment table: one entry per segKey holding the
	// segment and, once used, its sample vector and moments.
	segs map[segKey]*segment

	// anaPool recycles AnalyticEval scratch for Estimate's analytic mode;
	// evaluators are stateless between uses, so pooling only saves
	// allocations and cannot affect results.
	anaPool sync.Pool
}

// Option configures optional Simulator behavior in New.
type Option func(*Simulator)

// WithWorkers bounds the worker pool Estimate and Breakdown fan Monte-
// Carlo samples across. n <= 1 (the default is 0) samples serially; the
// simulator fans out only when n > 1. The estimate is bit-identical at
// every worker count — the knob trades goroutine overhead against
// wall-clock time only.
func WithWorkers(n int) Option { return func(s *Simulator) { s.workers = n } }

// DefaultSamples is the Monte-Carlo sample count used when the caller does
// not override it. The paper keeps this small by default so that plans are
// generated quickly (§5).
const DefaultSamples = 20

// New returns a simulator for the given job. samples <= 0 selects
// DefaultSamples. The rng seeds every Monte-Carlo stream the simulator
// will ever draw; its state is snapshotted, so the caller may keep using
// (or discard) the generator afterwards without perturbing the simulator.
func New(s *spec.ExperimentSpec, profile TrainProfile, cp CloudProfile, samples int, rng *stats.RNG, opts ...Option) (*Simulator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if profile == nil {
		return nil, fmt.Errorf("sim: nil train profile")
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	if samples <= 0 {
		samples = DefaultSamples
	}
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	sm := &Simulator{
		spec:    s,
		profile: profile,
		cloud:   cp,
		samples: samples,
		root:    *rng,
		segs:    make(map[segKey]*segment),
	}
	for _, o := range opts {
		o(sm)
	}
	return sm, nil
}

// Workers returns the Monte-Carlo worker bound, at least 1 (serial).
func (s *Simulator) Workers() int { return max(s.workers, 1) }

// Samples returns the Monte-Carlo sample count; callers sizing safety
// margins around sampled means divide the spread by its square root.
func (s *Simulator) Samples() int { return s.samples }

// planKey hashes a plan's allocation vector into the index of its
// dedicated stream family.
func planKey(p Plan) uint64 {
	words := make([]uint64, len(p.Alloc))
	for i, a := range p.Alloc {
		words[i] = uint64(a)
	}
	return stats.Hash64(words...)
}

// planStream returns the root generator of the plan's stream family. The
// returned RNG is freshly allocated, so callers may advance it or derive
// per-sample sub-streams from it without synchronization.
func (s *Simulator) planStream(p Plan) *stats.RNG {
	root := s.root
	return root.Stream(planKey(p))
}

// Spec returns the simulated job's specification.
func (s *Simulator) Spec() *spec.ExperimentSpec { return s.spec }

// Cloud returns the simulator's cloud profile.
func (s *Simulator) Cloud() CloudProfile { return s.cloud }

// buildResult carries the DAG along with each stage's nodes and cluster
// size.
type buildResult struct {
	graph  *dag.Graph
	stages []stageNodes
}

// BuildDAG synthesizes the execution DAG for a plan (§4.2, Figure 7):
// per stage, an optional blocking SCALE node plus parallel INIT_INSTANCE
// nodes if the cluster must grow, parallel TRAIN nodes (chained serially
// when the stage has fewer GPUs than trials), and a closing SYNC barrier
// that the next stage extends from. Deprovisioning is a zero-latency,
// zero-cost event and is not represented (it is accounted for by the cost
// model's per-stage instance counts).
func (s *Simulator) BuildDAG(p Plan) (*dag.Graph, error) {
	b, err := s.build(p)
	if err != nil {
		return nil, err
	}
	return b.graph, nil
}

func (s *Simulator) build(p Plan) (*buildResult, error) {
	if err := p.Validate(s.spec.NumStages()); err != nil {
		return nil, err
	}
	g := dag.New()
	b := &buildResult{graph: g}
	curInstances := 0
	frontier := []int(nil) // node IDs the next stage depends on
	trial0 := 0            // global index of the stage's first trial
	for i := 0; i < s.spec.NumStages(); i++ {
		st := s.addStage(g, i, p.Alloc[i], curInstances, frontier, trial0)
		b.stages = append(b.stages, st)
		curInstances = st.instances
		frontier = []int{st.syncID}
		trial0 += len(st.trainIDs)
	}
	return b, nil
}

// stageNodes is one stage's node IDs in an execution DAG plus the
// stage's cluster size.
type stageNodes struct {
	scaleID, syncID int // scaleID is -1 when the cluster does not grow
	trainIDs        []int
	instances       int
}

// addStage appends stage i's nodes under allocation alloc to g: the
// stage starts after the frontier nodes with cur instances up, and its
// first trial has global index trial0.
func (s *Simulator) addStage(g *dag.Graph, i, alloc, cur int, frontier []int, trial0 int) stageNodes {
	st := s.spec.Stage(i)
	gpn := s.cloud.Instance.GPUs
	// Size the cluster the way the placement controller will pack it
	// (co-located trials), so predicted instance counts — and therefore
	// per-instance cost — match execution.
	var need int
	if alloc >= st.Trials {
		need = placement.NodesNeeded(st.Trials, alloc/st.Trials, gpn)
	} else {
		need = placement.NodesNeeded(alloc, 1, gpn)
	}

	out := stageNodes{scaleID: -1, instances: need}
	stageDeps := frontier
	if need > cur {
		scale := g.AddNode(dag.Scale, i, -1, 0, s.cloud.Overheads.QueueDelay, frontier...)
		out.scaleID = scale.ID
		inits := make([]int, 0, need-cur)
		for k := cur; k < need; k++ {
			init := g.AddNode(dag.InitInstance, i, -1, 0, s.cloud.Overheads.InitLatency, scale.ID)
			inits = append(inits, init.ID)
		}
		// Training can begin only when both the previous stage is
		// complete and the new instances are ready.
		stageDeps = append(append([]int(nil), frontier...), inits...)
	}

	if alloc >= st.Trials {
		per := alloc / st.Trials
		trainDist := sumIters(s.profile.IterDist(per), st.Iters)
		for tr := 0; tr < st.Trials; tr++ {
			n := g.AddNode(dag.Train, i, trial0+tr, per, trainDist, stageDeps...)
			out.trainIDs = append(out.trainIDs, n.ID)
		}
	} else {
		// Fewer GPUs than trials: single-GPU slots with queued
		// trials chained serially behind them.
		trainDist := sumIters(s.profile.IterDist(1), st.Iters)
		slotTail := make([]int, alloc) // last node ID per slot
		for k := range slotTail {
			slotTail[k] = -1
		}
		for tr := 0; tr < st.Trials; tr++ {
			slot := tr % alloc
			deps := stageDeps
			if slotTail[slot] >= 0 {
				deps = []int{slotTail[slot]}
			}
			n := g.AddNode(dag.Train, i, trial0+tr, 1, trainDist, deps...)
			slotTail[slot] = n.ID
			out.trainIDs = append(out.trainIDs, n.ID)
		}
	}

	out.syncID = g.AddNode(dag.Sync, i, -1, 0, stats.Deterministic{Value: 0}, out.trainIDs...).ID
	return out
}

// Estimate predicts JCT and cost for the plan by drawing s.samples
// Monte-Carlo samples of each stage segment and
// replaying every sample against the billing model. Segment draws fan
// out across the simulator's worker pool (WithWorkers) into
// index-addressed slots and the recombination reduces in fixed index
// order, so the estimate is bit-identical at any worker count and across
// repeated or concurrent calls, in both estimator modes.
//
//rbvet:pure
func (s *Simulator) Estimate(p Plan) (Estimate, error) {
	if s.estimator == EstimatorAnalytic {
		e := s.AcquireAnalyticEval()
		est, ok, err := e.Estimate(p)
		s.ReleaseAnalyticEval(e)
		if err != nil {
			return Estimate{}, err
		}
		if ok {
			return est, nil
		}
		// Some latency lacks finite moments: fall back to segment-mode
		// Monte-Carlo below (sampleVectors treats non-Full as segment).
	}
	cp, err := s.compile(p)
	if err != nil {
		return Estimate{}, err
	}
	vecs := s.sampleVectors(cp, p)
	jcts := make([]float64, s.samples)
	costs := make([]float64, s.samples)
	var births []float64
	for k := 0; k < s.samples; k++ {
		jcts[k], costs[k], births = s.priceSchedule(cp, vecs, k, births)
	}
	var est Estimate
	est.JCT, est.JCTStd = stats.SortMeanStd(jcts)
	est.Cost, est.CostStd = stats.SortMeanStd(costs)
	return est, nil
}

// instanceCharge bills one instance held from birth to death.
func (s *Simulator) instanceCharge(birth, death float64) float64 {
	lifetime := death - birth
	if lifetime < 0 {
		lifetime = 0
	}
	if lifetime < s.cloud.Pricing.MinChargeSeconds {
		lifetime = s.cloud.Pricing.MinChargeSeconds
	}
	return lifetime / 3600 * s.cloud.Instance.PricePerHour(s.cloud.Pricing.Market)
}

// MeanIterLatency returns the profile's expected iteration latency at the
// given per-trial allocation — a convenience for planners sizing warm
// starts.
func (s *Simulator) MeanIterLatency(gpus int) float64 {
	return s.profile.IterDist(gpus).Mean()
}

// StaticClusterJCT is a quick analytic lower-bound estimate of a static
// plan's JCT using mean latencies only (no straggler inflation); used for
// bracketing enumeration ranges, not for plan selection.
func (s *Simulator) StaticClusterJCT(gpus int) float64 {
	var total float64
	for i := 0; i < s.spec.NumStages(); i++ {
		st := s.spec.Stage(i)
		if gpus >= st.Trials {
			per := gpus / st.Trials
			total += float64(st.Iters) * s.MeanIterLatency(per)
		} else {
			waves := math.Ceil(float64(st.Trials) / float64(gpus))
			total += waves * float64(st.Iters) * s.MeanIterLatency(1)
		}
	}
	return total
}
