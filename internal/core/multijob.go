package core

import (
	"errors"
	"fmt"

	"repro/internal/executor"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// BracketResult is one bracket's outcome within a multi-job.
type BracketResult struct {
	Spec      *spec.ExperimentSpec
	Plan      sim.Plan
	Predicted sim.Estimate
	Actual    *executor.Result
	// Grants records the per-stage GPU grants a shared-capacity run gave
	// this bracket (nil for unconstrained multi-jobs).
	Grants []int
}

// MultiResult aggregates a concurrently executed multi-job (Figure 6's
// "collection of specifications", e.g. Hyperband's brackets).
type MultiResult struct {
	Brackets []BracketResult
	// TotalCost sums every bracket's realized cost.
	TotalCost float64
	// JCT is the multi-job's completion time: the max across brackets,
	// since they run concurrently on one (virtual) cloud.
	JCT float64
	// BestAccuracy/BestConfig identify the global winner.
	BestAccuracy float64
	BestConfig   map[string]any
}

// errMultiTrace rejects a traced multi-job: trace events carry no
// bracket field, so one recorder shared across brackets would conflate
// their trial IDs.
var errMultiTrace = errors.New("core: Trace is not supported for multi-job runs (events carry no bracket id)")

// RunMultiJob plans each bracket independently under the template
// experiment's deadline and policy, then executes all brackets
// concurrently in a single virtual timeline: one shared clock, one
// provider and cluster manager per bracket (brackets scale independently;
// costs aggregate). The template's Spec field is ignored; each bracket
// supplies its own. The template's Trace must be nil: trace events carry
// no bracket id, so RunMultiJob returns an error rather than mix brackets
// in one recorder.
func (e *Experiment) RunMultiJob(brackets []*spec.ExperimentSpec) (*MultiResult, error) {
	return e.runBrackets(brackets, 0)
}

// RunMultiJobShared is RunMultiJob on a capacity-constrained cluster:
// the brackets still share one virtual timeline, but their stage-
// boundary allocations are arbitrated against a single GPU capacity — a
// bracket entering a stage exchanges its current hold for min(planned,
// free) GPUs, never below 1, and a finished bracket releases its hold
// for the others. This is the single-process seed of the serve control
// plane's cross-experiment arbiter: same exchange rule, same capacity
// invariant (Σ holds ≤ capacity after every grant), no wall clock.
// capacity must be at least len(brackets) so every live bracket can hold
// its 1-GPU minimum. As with RunMultiJob, Trace must be nil.
func (e *Experiment) RunMultiJobShared(brackets []*spec.ExperimentSpec, capacity int) (*MultiResult, error) {
	if len(brackets) > 0 && capacity < len(brackets) {
		return nil, fmt.Errorf("core: capacity %d < %d brackets (each live bracket holds >= 1 GPU)", capacity, len(brackets))
	}
	return e.runBrackets(brackets, capacity)
}

// runBrackets is the multi-job body: plan every bracket, then launch
// them all on one shared clock and step it until every bracket is done.
// capacity 0 runs the brackets unconstrained; a positive capacity
// arbitrates every stage boundary against the shared GPU ledger.
func (e *Experiment) runBrackets(brackets []*spec.ExperimentSpec, capacity int) (*MultiResult, error) {
	if len(brackets) == 0 {
		return nil, fmt.Errorf("core: no brackets")
	}
	if e.Trace != nil {
		return nil, errMultiTrace
	}
	// Plan every bracket first (planning is offline, §3.1).
	plans := make([]sim.Plan, len(brackets))
	preds := make([]sim.Estimate, len(brackets))
	for i, b := range brackets {
		be := *e
		be.Spec = b
		be.Seed = e.Seed + uint64(i)*7919
		res, _, err := be.Plan()
		if err != nil {
			return nil, fmt.Errorf("core: bracket %d: %w", i, err)
		}
		plans[i] = res.Plan
		preds[i] = res.Estimate
	}

	// One shared timeline for all brackets.
	clock := vclock.New()
	cp := e.cloudProfile()
	jobs := make([]*executor.Job, len(brackets))
	// holds is the shared ledger of a capacity-constrained run: every
	// un-finished bracket's current GPU hold, seeded at the 1-GPU
	// minimum. The gates below run serially on the shared virtual clock,
	// so plain slice updates keep the invariant.
	holds := make([]int, len(brackets))
	for i := range holds {
		holds[i] = 1
	}
	grants := make([][]int, len(brackets))
	for i, b := range brackets {
		seed := e.Seed + uint64(i)*7919
		rng := stats.NewRNG(seed + 2)
		provider, mgr, err := pipeline.NewSubstrate(clock, rng.Split(), cp, e.Faults)
		if err != nil {
			return nil, err
		}
		configs := e.Space.SampleN(stats.NewRNG(seed+3), b.TotalTrials())
		var gate func(stage, planned int) int
		if capacity > 0 {
			idx := i
			gate = func(stage, planned int) int {
				free := capacity
				for j, h := range holds {
					if j != idx {
						free -= h
					}
				}
				g := planned
				if g > free {
					g = free
				}
				if g < 1 {
					g = 1
				}
				holds[idx] = g
				grants[idx] = append(grants[idx], g)
				return g
			}
		}
		job, err := executor.Start(executor.Config{
			Spec:             b,
			Plan:             plans[i],
			Model:            e.Model,
			Batch:            e.batch(),
			Configs:          configs,
			Provider:         provider,
			Cluster:          mgr,
			Clock:            clock,
			RNG:              rng,
			DisablePlacement: e.DisablePlacement,
			RestoreSeconds:   e.RestoreSeconds,
			StageGate:        gate,
		})
		if err != nil {
			return nil, fmt.Errorf("core: bracket %d: %w", i, err)
		}
		jobs[i] = job
	}

	// Step the shared timeline, releasing each bracket's hold the moment
	// it finishes so the remaining brackets can grow into the freed GPUs
	// at their next stage boundary.
	clock.RunUntil(func() bool {
		done := true
		for i, j := range jobs {
			if j.Done() {
				holds[i] = 0
			} else {
				done = false
			}
		}
		return done
	})

	return collectMulti(brackets, plans, preds, jobs, grants)
}

// collectMulti aggregates the brackets' outcomes.
func collectMulti(brackets []*spec.ExperimentSpec, plans []sim.Plan, preds []sim.Estimate,
	jobs []*executor.Job, grants [][]int) (*MultiResult, error) {
	out := &MultiResult{}
	for i, j := range jobs {
		actual, err := j.Result()
		if err != nil {
			return nil, fmt.Errorf("core: bracket %d: %w", i, err)
		}
		out.Brackets = append(out.Brackets, BracketResult{
			Spec:      brackets[i],
			Plan:      plans[i],
			Predicted: preds[i],
			Actual:    actual,
			Grants:    grants[i],
		})
		out.TotalCost += actual.Cost
		if actual.JCT > out.JCT {
			out.JCT = actual.JCT
		}
		if actual.BestAccuracy > out.BestAccuracy {
			out.BestAccuracy = actual.BestAccuracy
			out.BestConfig = actual.BestConfig
		}
	}
	return out, nil
}
