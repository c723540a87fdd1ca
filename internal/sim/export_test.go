package sim

import (
	"fmt"
	"reflect"

	"repro/internal/dag"
)

// CheckSegmentTable checks every entry of s's segment table against the
// full execution DAG and returns how many entries it checked. Each entry
// was built for some stage of some plan the simulator resolved; the check
// rebuilds such a plan (a witness) from the table itself — the entry's
// allocation at its stage, earlier stages chained through table entries
// whose instance counts carry the entry's prev — and requires that
//
//   - the witness resolves to this very tuple at the entry's stage;
//   - the entry's program equals, column for column, dag.CompileRange
//     over that stage's node range of BuildDAG(witness);
//   - scaleIdx, trainLo, trainHi, instances and trainGPUs match the
//     graph's stage metadata.
//
// Since a stage segment is a function of its tuple alone, this covers
// every stage of every plan the simulator scored.
func CheckSegmentTable(s *Simulator) (int, error) {
	s.mu.Lock()
	var entries []*segment
	byStage := make(map[int][]*segment)
	for e := s.segs.head.next; e != &s.segs.head; e = e.next {
		sg := e.val
		entries = append(entries, sg)
		byStage[sg.key.stage] = append(byStage[sg.key.stage], sg)
	}
	s.mu.Unlock()

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
		lo = b.syncID[k-1] + 1
	}
	want := dag.CompileRange(b.graph, lo, b.syncID[k]+1)
	if !reflect.DeepEqual(*sg.prog, *want) {
		return fmt.Errorf("program differs from CompileRange:\n got %+v\nwant %+v", *sg.prog, *want)
	}
	scaleIdx := -1
	if b.scaleID[k] >= 0 {
		scaleIdx = b.scaleID[k] - lo
	}
	trains := b.trainIDs[k]
	trainLo, trainHi := trains[0]-lo, trains[len(trains)-1]+1-lo
	if len(trains) != trainHi-trainLo {
		return fmt.Errorf("graph TRAIN nodes %v are not contiguous", trains)
	}
	trainGPUs := GPUsPerTrial(plan.Alloc[k], s.spec.Stage(k).Trials)
	if sg.scaleIdx != scaleIdx || sg.trainLo != trainLo || sg.trainHi != trainHi ||
		sg.instances != b.instances[k] || sg.trainGPUs != trainGPUs {
		return fmt.Errorf("metadata (scale %d, train [%d, %d), instances %d, gpus %d), want (%d, [%d, %d), %d, %d)",
			sg.scaleIdx, sg.trainLo, sg.trainHi, sg.instances, sg.trainGPUs,
			scaleIdx, trainLo, trainHi, b.instances[k], trainGPUs)
	}
	return nil
}

// BuildSegment builds the stage segment for the tuple (stage, alloc,
// prev) without touching the segment table.
func (s *Simulator) BuildSegment(stage, alloc, prev int) {
	s.buildSegment(segKey{stage: stage, alloc: alloc, prev: prev})
}
