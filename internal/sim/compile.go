package sim

import (
	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/par"
	"repro/internal/placement"
	"repro/internal/stats"
)

// segStreamDomain separates the segment-keyed RNG stream family from the
// plan-keyed family used by EstimatorFull and from any other Hash64 users.
const segStreamDomain = 0x7365676d656e7431 // "segment1"

// segKey identifies one stage segment of an execution DAG up to
// isomorphism within a single Simulator: the stage index fixes the trial
// count and iteration budget, alloc the per-trial GPU share and target
// cluster size, and prev — the instance count carried in from the previous
// stage — whether the segment opens with a SCALE request and how many
// INIT_INSTANCE nodes follow it. Two plans whose stage i agrees on
// (alloc, prev) execute bit-identical segments there.
type segKey struct {
	stage, alloc, prev int
}

// segment is one stage's execution in closed form. Every stage of the
// execution DAG (§4.2, Figure 7) has the same fork-join shape — a SCALE
// request, grow identical INIT_INSTANCEs behind it, trials identical
// TRAINs (chained behind w single-GPU slots when the stage has fewer GPUs
// than trials), and a closing SYNC barrier — so a segment is just the
// three encoded latencies and the three counts that fix the shape. All
// cross-stage edges of the full DAG pass through the SYNC barriers, so
// a segment evaluates zero-based (the previous SYNC is the implicit
// time-zero source) and plan-level quantities recombine from
// per-segment samples.
//
// sample and moments are closed forms of dag.Program.SampleInto and
// dag.Program.MomentsInto over dag.CompileRange of the segment's stage
// range of BuildDAG's graph, bit for bit; the segment-table tests hold
// them to it.
//
// A segment is the one entry the simulator keeps per segKey: its shape
// is immutable after buildSegment, and its two estimate slots (the
// Monte-Carlo sample vector and the analytic moments) fill lazily on
// first use under Simulator.mu.
type segment struct {
	key segKey
	// scale, init and train are the SCALE, INIT_INSTANCE and TRAIN
	// latencies (scale and init are unused when grow is zero).
	scale, init, train dag.Latency
	// grow is the number of instances the SCALE request adds (zero when
	// the cluster does not grow into the stage: no SCALE, no INITs).
	grow int
	// trials is the stage's TRAIN count and w its first-wave width:
	// trials, or alloc single-GPU slots when alloc < trials, with trial
	// tr >= w chained behind trial tr-w.
	trials, w int
	// instances is the cluster size (machines) during the stage.
	instances int
	// trainGPUs is the per-trial GPU count of every TRAIN.
	trainGPUs int

	// samples is the s.samples-long sample vector, nil until filled.
	samples []segSample
	// mom holds the analytic moments once momFilled is set.
	mom       segMoment
	momFilled bool
}

// segSample is the sufficient statistic one Monte-Carlo draw of one
// segment contributes to plan estimation: the segment's zero-based
// wall-clock span, the finish time of its SCALE request (0 when the
// cluster does not grow), and the total busy GPU-slot seconds across its
// TRAIN nodes. JCT recombination chains dur across stages; billing replay
// derives instance births from scaleFin and training GPU-time from
// trainSec.
type segSample struct {
	dur, scaleFin, trainSec float64
}

// sample draws one execution of the segment and condenses it to its
// segSample, reusing slots as the chained slots' scratch and returning
// it. It is SampleInto over the segment's program without the program:
// the same latency draws in node order (SCALE, INITs, TRAINs; the SYNC
// draws nothing), each node starting at the largest dependency finish
// above zero, the span the largest finish above zero, and trainSec the
// TRAINs' finish − start summed in trial order.
//
//rbvet:pure
//rbvet:noalloc
func (sg *segment) sample(r *stats.RNG, slots []float64) (segSample, []float64) {
	var out segSample
	mk := 0.0   // span: the largest finish so far
	base := 0.0 // first-wave TRAIN start: the largest INIT finish
	if sg.grow > 0 {
		start := 0.0
		sf := start + sg.scale.Sample(r)
		if sf > start {
			start = sf
		}
		for k := 0; k < sg.grow; k++ {
			if f := start + sg.init.Sample(r); f > base {
				base = f
			}
		}
		out.scaleFin = sf
		mk = base
		if sf > mk {
			mk = sf
		}
	}
	chained := sg.w < sg.trials
	if chained {
		if cap(slots) < sg.w {
			//rbvet:ignore noalloc — cold path: runs once per slot count; steady-state calls reuse slots
			slots = make([]float64, sg.w)
		}
		slots = slots[:sg.w]
	}
	slot := 0
	for tr := 0; tr < sg.trials; tr++ {
		start := base
		if tr >= sg.w {
			start = 0.0
			if f := slots[slot]; f > start {
				start = f
			}
		}
		f := start + sg.train.Sample(r)
		out.trainSec += f - start
		if f > mk {
			mk = f
		}
		if chained {
			slots[slot] = f
			if slot++; slot == sg.w {
				slot = 0
			}
		}
	}
	out.dur = mk
	return out, slots
}

// compiledPlan is a plan resolved to its per-stage segments plus the
// plan-level constants the cost model needs.
type compiledPlan struct {
	segs []*segment
	// maxInstances is the peak cluster size, which fixes the data-ingress
	// charge under LIFO deprovisioning.
	maxInstances int
}

// compile resolves a plan into a fresh compiledPlan.
func (s *Simulator) compile(p Plan) (*compiledPlan, error) {
	cp := &compiledPlan{segs: make([]*segment, 0, len(p.Alloc))}
	if err := s.resolve(p, cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// resolve validates p and fills cp with its per-stage segments, reusing
// cp.segs' capacity and building missing segments into the segment table.
func (s *Simulator) resolve(p Plan, cp *compiledPlan) error {
	if err := p.Validate(s.spec.NumStages()); err != nil {
		return err
	}
	cp.segs, cp.maxInstances = cp.segs[:0], 0
	prev := 0
	for i, alloc := range p.Alloc {
		sg := s.segmentFor(segKey{stage: i, alloc: canonAlloc(alloc, s.spec.Stage(i).Trials), prev: prev})
		cp.segs = append(cp.segs, sg)
		prev = sg.instances
		if sg.instances > cp.maxInstances {
			cp.maxInstances = sg.instances
		}
	}
	return nil
}

// canonAlloc maps a stage allocation to its behavioral representative:
// above the trial count only the fair per-trial share alloc/trials is
// ever used (by the DAG builder, the placement sizing, and the billing),
// so every allocation in [k·trials, (k+1)·trials) executes identically
// to k·trials. Keying segments by the representative makes equivalent
// allocations share segments, sample vectors, and — because
// segStream hashes the key — the exact same common random numbers, which
// is what lets the planner deduplicate symmetric frontier candidates
// without changing any estimate.
func canonAlloc(alloc, trials int) int {
	if alloc >= trials {
		return alloc - alloc%trials
	}
	return alloc
}

// CanonicalPlanKey returns the Plan.Key encoding of p's behavioral
// representative under this simulator's spec: each stage allocation
// mapped through canonAlloc. Two plans with equal canonical keys produce
// bit-identical estimates in the segment and analytic modes, which derive
// segments, sample vectors and RNG streams from the canonical segment
// tuples; the full-DAG mode keys its streams by the raw plan and is
// excluded from the guarantee. The planner's frontier deduplication memos
// on this key. Stages beyond the spec pass through unmapped (such plans
// fail validation at estimation time anyway).
func (s *Simulator) CanonicalPlanKey(p Plan) string {
	stages := s.spec.NumStages()
	b := make([]byte, 0, 4*len(p.Alloc))
	for i, a := range p.Alloc {
		if i < stages {
			a = canonAlloc(a, s.spec.Stage(i).Trials)
		}
		b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return string(b)
}

// segmentFor returns the table's segment for key, building and
// inserting it on first use. A segment is a pure function of its key,
// so when two callers race to build one, the first insert wins and the
// other's copy is dropped. The key space — stages × canonical
// allocations up to the largest plan × instance counts — is finite, so
// the table needs no eviction.
func (s *Simulator) segmentFor(key segKey) *segment {
	s.mu.Lock()
	sg, ok := s.segs[key]
	s.mu.Unlock()
	if ok {
		return sg
	}
	built := s.buildSegment(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sg, ok := s.segs[key]; ok {
		return sg
	}
	s.segs[key] = built
	return built
}

// buildSegment derives one stage's closed-form segment from its tuple:
// the cluster size placement packs the stage into, the growth over the
// previous stage's instances, the first-wave width, and the encoded
// latencies.
//
//rbvet:pure
func (s *Simulator) buildSegment(key segKey) *segment {
	st := s.spec.Stage(key.stage)
	gpn := s.cloud.Instance.GPUs
	sg := &segment{key: key, trials: st.Trials, w: st.Trials}
	if key.alloc < st.Trials {
		// Single-GPU slots, queued trials chained behind them.
		sg.w, sg.trainGPUs = key.alloc, 1
		sg.instances = placement.NodesNeeded(key.alloc, 1, gpn)
	} else {
		sg.trainGPUs = key.alloc / st.Trials
		sg.instances = placement.NodesNeeded(st.Trials, sg.trainGPUs, gpn)
	}
	if sg.instances > key.prev {
		sg.grow = sg.instances - key.prev
		sg.scale = dag.NewLatency(s.cloud.Overheads.QueueDelay)
		sg.init = dag.NewLatency(s.cloud.Overheads.InitLatency)
	}
	sg.train = dag.NewLatency(sumIters(s.profile.IterDist(sg.trainGPUs), st.Iters))
	return sg
}

// segStream returns the root generator of a segment tuple's stream
// family. Deriving streams from the tuple rather than the plan is what
// makes segment samples reusable across plans: every plan that executes
// this tuple sees the same draws (common random numbers).
func (s *Simulator) segStream(key segKey) *stats.RNG {
	root := s.root
	return root.Stream(stats.Hash64(segStreamDomain, uint64(key.stage), uint64(key.alloc), uint64(key.prev)))
}

// segmentSamples returns the segment's s.samples-long sample vector,
// filling its slot on first use. Sample k always draws from the k-th
// stream of the tuple's family and slots are index-addressed, so the
// vector is bit-identical at any worker count.
func (s *Simulator) segmentSamples(sg *segment) []segSample {
	s.mu.Lock()
	v := sg.samples
	s.mu.Unlock()
	if v != nil {
		return v
	}
	v = make([]segSample, s.samples)
	base := s.segStream(sg.key)
	scratch := make([][]float64, s.workerSlots())
	rngs := make([]stats.RNG, len(scratch))
	par.ForEachWorker(s.samples, s.Workers(), func(w, k int) {
		base.StreamInto(uint64(k), &rngs[w])
		v[k], scratch[w] = sg.sample(&rngs[w], scratch[w])
	})
	s.mu.Lock()
	sg.samples = v
	s.mu.Unlock()
	return v
}

// workerSlots returns the number of distinct worker slots a Monte-Carlo
// fan-out over s.samples can occupy (see par.ForEachWorker).
func (s *Simulator) workerSlots() int {
	return max(min(s.Workers(), s.samples), 1)
}

// sampleVectors produces the per-stage sample vectors for a compiled
// plan under the simulator's estimator mode. vecs[i][k] is stage i's
// segSample for Monte-Carlo draw k.
//
// EstimatorSegment composes cached tuple-keyed vectors; EstimatorFull
// draws every stage fresh from the plan's own stream family, with sample
// k's single stream threaded through the stages in order (the draw order
// of sampling the full DAG). Both modes evaluate the same segments, so
// they differ only in which RNG stream feeds each segment.
func (s *Simulator) sampleVectors(cp *compiledPlan, p Plan) [][]segSample {
	vecs := make([][]segSample, len(cp.segs))
	if s.estimator != EstimatorFull {
		for i, sg := range cp.segs {
			vecs[i] = s.segmentSamples(sg)
		}
		return vecs
	}
	for i := range vecs {
		vecs[i] = make([]segSample, s.samples)
	}
	base := s.planStream(p)
	scratch := make([][]float64, s.workerSlots())
	rngs := make([]stats.RNG, len(scratch))
	par.ForEachWorker(s.samples, s.Workers(), func(w, k int) {
		r := &rngs[w]
		base.StreamInto(uint64(k), r)
		for i, sg := range cp.segs {
			vecs[i][k], scratch[w] = sg.sample(r, scratch[w])
		}
	})
	return vecs
}

// priceSchedule replays Monte-Carlo draw k of a compiled plan's segment
// rows against the billing model: stage durations chain into absolute
// time, per-instance billing replays LIFO instance lifetimes (births
// derived from each growth stage's SCALE finish, deaths at stage
// boundaries or job completion, subject to the minimum charge), and
// per-function billing sums training GPU-seconds. It returns the
// recombined JCT and total cost including data ingress. births is a
// reusable scratch buffer, returned (emptied) for the next call.
//
//rbvet:noalloc
func (s *Simulator) priceSchedule(cp *compiledPlan, vecs [][]segSample, k int, births []float64) (jct, cost float64, _ []float64) {
	pr := s.cloud.Pricing
	cost = float64(cp.maxInstances) * pr.DataIngressCost(s.cloud.DatasetGB)

	if pr.Billing == cloud.PerFunction {
		pg := s.cloud.Instance.PricePerGPUSecond(pr.Market)
		for i, sg := range cp.segs {
			row := vecs[i][k]
			jct += row.dur
			cost += row.trainSec * float64(sg.trainGPUs) * pg
		}
		return jct, cost, births
	}

	alive := births[:0] // birth time per alive instance, LIFO order
	stageStart := 0.0
	for i, sg := range cp.segs {
		row := vecs[i][k]
		want := sg.instances
		if want > len(alive) {
			birth := stageStart
			if sg.grow > 0 {
				birth = stageStart + row.scaleFin // after queueing
			}
			for len(alive) < want {
				alive = append(alive, birth)
			}
		} else {
			for len(alive) > want {
				b := alive[len(alive)-1]
				alive = alive[:len(alive)-1]
				cost += s.instanceCharge(b, stageStart)
			}
		}
		stageStart += row.dur
	}
	for _, b := range alive {
		cost += s.instanceCharge(b, stageStart)
	}
	return stageStart, cost, alive[:0]
}
