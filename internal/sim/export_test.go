package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dag"
	"repro/internal/stats"
)

// CheckSegmentTable checks every entry of s's segment table against the
// full execution DAG and returns how many entries it checked. Each entry
// was built for some stage of some plan the simulator resolved; the check
// rebuilds such a plan (a witness) from the table itself — the entry's
// allocation at its stage, earlier stages chained through table entries
// whose instance counts carry the entry's prev — and requires that
//
//   - the witness resolves to this very tuple at the entry's stage;
//   - the entry's instances and trainGPUs match the graph's stage
//     metadata;
//   - the entry behaves bit for bit as dag.CompileRange over that
//     stage's node range of BuildDAG(witness) (see checkClosedForm).
//
// Since a stage segment is a function of its tuple alone, this covers
// every stage of every plan the simulator scored.
func CheckSegmentTable(s *Simulator) (int, error) {
	s.mu.Lock()
	entries := make([]*segment, 0, len(s.segs))
	for _, sg := range s.segs {
		entries = append(entries, sg)
	}
	s.mu.Unlock()
	// Map order is random; sort by key so the witness each entry picks
	// from byStage is deterministic.
	slices.SortFunc(entries, func(a, b *segment) int {
		return cmp.Or(cmp.Compare(a.key.stage, b.key.stage), cmp.Compare(a.key.alloc, b.key.alloc), cmp.Compare(a.key.prev, b.key.prev))
	})
	byStage := make(map[int][]*segment)
	for _, sg := range entries {
		byStage[sg.key.stage] = append(byStage[sg.key.stage], sg)
	}

	for _, sg := range entries {
		plan, err := s.witness(sg, byStage)
		if err != nil {
			return 0, err
		}
		if err := s.checkSegment(sg, plan); err != nil {
			return 0, fmt.Errorf("segment %+v (witness %v): %w", sg.key, plan, err)
		}
	}
	return len(entries), nil
}

// witness returns a plan whose stage sg.key.stage resolves to sg's tuple.
func (s *Simulator) witness(sg *segment, byStage map[int][]*segment) (Plan, error) {
	alloc := make([]int, s.spec.NumStages())
	for j := range alloc {
		alloc[j] = s.spec.Stage(j).Trials
	}
	alloc[sg.key.stage] = sg.key.alloc
	prev := sg.key.prev
	for j := sg.key.stage - 1; j >= 0; j-- {
		var pred *segment
		for _, c := range byStage[j] {
			if c.instances == prev {
				pred = c
				break
			}
		}
		if pred == nil {
			return Plan{}, fmt.Errorf("segment %+v: no stage-%d entry with %d instances", sg.key, j, prev)
		}
		alloc[j], prev = pred.key.alloc, pred.key.prev
	}
	if prev != 0 {
		return Plan{}, fmt.Errorf("segment %+v: chain starts from %d instances", sg.key, prev)
	}
	return Plan{Alloc: alloc}, nil
}

// checkSegment compares sg with its stage of the full DAG of plan.
func (s *Simulator) checkSegment(sg *segment, plan Plan) error {
	var cp compiledPlan
	if err := s.resolve(plan, &cp); err != nil {
		return err
	}
	k := sg.key.stage
	if cp.segs[k].key != sg.key {
		return fmt.Errorf("witness resolves stage %d to %+v", k, cp.segs[k].key)
	}
	b, err := s.build(plan)
	if err != nil {
		return err
	}
	lo := 0
	if k > 0 {
		lo = b.stages[k-1].syncID + 1
	}
	st := b.stages[k]
	prog := dag.CompileRange(b.graph, lo, st.syncID+1)
	return checkClosedForm(sg, prog, st, lo, GPUsPerTrial(plan.Alloc[k], s.spec.Stage(k).Trials))
}

// checkKey builds the segment for key and checks it against the stage
// addStage emits for the same tuple into a graph of its own: with no
// frontier, the stage's first nodes are sources, exactly as
// CompileRange leaves them when it drops the edges from the previous
// stage's SYNC.
func (s *Simulator) checkKey(key segKey) error {
	g := dag.New()
	st := s.addStage(g, key.stage, key.alloc, key.prev, nil, 0)
	return checkClosedForm(s.buildSegment(key), dag.Compile(g), st, 0, GPUsPerTrial(key.alloc, s.spec.Stage(key.stage).Trials))
}

// closedFormStreams is the number of RNG streams checkClosedForm draws
// a segment on.
const closedFormStreams = 8

// checkClosedForm requires that sg behaves bit for bit as prog, the
// compiled stage whose nodes st lists at offset lo in its graph:
//
//   - instances and trainGPUs equal the stage's cluster size and gpus;
//   - on each of closedFormStreams RNG streams, sample returns the
//     segSample condensed from prog.SampleInto (span, SCALE finish,
//     TRAIN finish − start summed in trial order) and leaves the
//     generator in the same state;
//   - moments returns the segMoment condensed from prog.MomentsInto,
//     ok included.
func checkClosedForm(sg *segment, prog *dag.Program, st stageNodes, lo, gpus int) error {
	if sg.instances != st.instances || sg.trainGPUs != gpus {
		return fmt.Errorf("metadata (instances %d, gpus %d), want (%d, %d)", sg.instances, sg.trainGPUs, st.instances, gpus)
	}
	scaleIdx := -1
	if st.scaleID >= 0 {
		scaleIdx = st.scaleID - lo
	}
	trainLo, trainHi := st.trainIDs[0]-lo, st.trainIDs[len(st.trainIDs)-1]+1-lo
	if len(st.trainIDs) != trainHi-trainLo {
		return fmt.Errorf("graph TRAIN nodes %v are not contiguous", st.trainIDs)
	}

	root := stats.NewRNG(stats.Hash64(uint64(sg.key.stage), uint64(sg.key.alloc), uint64(sg.key.prev)))
	var slots []float64
	var buf []dag.Timing
	for k := 0; k < closedFormStreams; k++ {
		r := root.Stream(uint64(k))
		ref := *r
		var got segSample
		got, slots = sg.sample(r, slots)
		var want segSample
		buf, want.dur = prog.SampleInto(&ref, buf)
		if scaleIdx >= 0 {
			want.scaleFin = buf[scaleIdx].Finish
		}
		for _, t := range buf[trainLo:trainHi] {
			want.trainSec += t.Finish - t.Start
		}
		if !sameBits(got.dur, want.dur) || !sameBits(got.scaleFin, want.scaleFin) || !sameBits(got.trainSec, want.trainSec) {
			return fmt.Errorf("stream %d: sample %+v, program %+v", k, got, want)
		}
		if r.State() != ref.State() {
			return fmt.Errorf("stream %d: generator state %x after sample, %x after the program", k, r.State(), ref.State())
		}
	}

	var want segMoment
	var sc dag.MomentScratch
	if mk, ok := prog.MomentsInto(&sc); ok {
		want = segMoment{dur: mk, ok: true}
		if scaleIdx >= 0 {
			want.scaleFin = sc.Finish(scaleIdx)
		}
		for i := trainLo; i < trainHi; i++ {
			want.trainSec = want.trainSec.AddIndep(sc.Latency(i))
		}
	}
	got := sg.moments()
	if got.ok != want.ok || !sameMoment(got.dur, want.dur) || !sameMoment(got.scaleFin, want.scaleFin) || !sameMoment(got.trainSec, want.trainSec) {
		return fmt.Errorf("moments %+v, program %+v", got, want)
	}
	return nil
}

// sameBits reports whether two floats have the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameMoment reports whether two moments have the same bit patterns.
func sameMoment(a, b stats.Moment) bool { return sameBits(a.Mean, b.Mean) && sameBits(a.Var, b.Var) }

// BuildSegment builds the stage segment for the tuple (stage, alloc,
// prev) without touching the segment table.
func (s *Simulator) BuildSegment(stage, alloc, prev int) {
	s.buildSegment(segKey{stage: stage, alloc: alloc, prev: prev})
}

// SegmentTableKeys returns the (stage, alloc, prev) keys of s's segment
// table.
func SegmentTableKeys(s *Simulator) map[[3]int]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make(map[[3]int]bool, len(s.segs))
	for k := range s.segs {
		keys[[3]int{k.stage, k.alloc, k.prev}] = true
	}
	return keys
}

// SegmentKeySpace enumerates every segment key a plan with stage
// allocations in 1..maxGPUs can resolve to: per stage, each canonical
// allocation under each instance count some allocation of the previous
// stage leaves up (none before stage 0).
func SegmentKeySpace(s *Simulator, maxGPUs int) map[[3]int]bool {
	space := make(map[[3]int]bool)
	prevs := map[int]bool{0: true}
	for i := 0; i < s.spec.NumStages(); i++ {
		next := make(map[int]bool)
		for a := 1; a <= maxGPUs; a++ {
			alloc := canonAlloc(a, s.spec.Stage(i).Trials)
			for prev := range prevs {
				key := segKey{stage: i, alloc: alloc, prev: prev}
				space[[3]int{i, alloc, prev}] = true
				next[s.buildSegment(key).instances] = true
			}
		}
		prevs = next
	}
	return space
}
