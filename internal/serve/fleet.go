package serve

import (
	"fmt"

	"repro/internal/pipeline"
)

// FleetJob is one experiment in a deterministic in-process fleet run.
type FleetJob struct {
	ID       string
	Tenant   string
	Scenario pipeline.Scenario
}

// FleetJobResult is one fleet job's outcome.
type FleetJobResult struct {
	ID          string
	Artifacts   *pipeline.Artifacts
	Digest      pipeline.Digest
	DeadlineMet bool
	Err         error
}

// FleetResult bundles a fleet run's outcomes and the arbiter log.
type FleetResult struct {
	Jobs []FleetJobResult
	Log  []pipeline.FleetEvent
}

// Met counts jobs that finished within their deadline.
func (r *FleetResult) Met() int {
	n := 0
	for _, j := range r.Jobs {
		if j.DeadlineMet {
			n++
		}
	}
	return n
}

// RunFleet executes jobs against one shared arbiter without HTTP or
// goroutines: admission is FIFO as capacity frees, and execution
// interleaves the live runs by always stepping the one with the smallest
// (virtual time, submission index) — a deterministic schedule, so the
// differential tests (slack vs FIFO policy on identical fleets) compare
// exactly one changed variable. Every stage boundary arbitrates through
// Arbiter.Exchange with the pipeline-computed deadline slack, exactly as
// the live server's drivers do.
func RunFleet(capacity int, policy Policy, jobs []FleetJob) (*FleetResult, error) {
	arb, err := NewArbiter(capacity, policy)
	if err != nil {
		return nil, err
	}
	res := &FleetResult{Jobs: make([]FleetJobResult, len(jobs))}
	for i := range jobs {
		res.Jobs[i].ID = jobs[i].ID
		arb.Note("submit", jobs[i].ID, jobs[i].Tenant)
	}

	type liveRun struct {
		idx int
		run *pipeline.Running
	}
	var live []*liveRun
	next := 0 // next job to admit (FIFO)

	admit := func() error {
		for next < len(jobs) && arb.Free() >= 1 {
			j := jobs[next]
			idx := next
			next++
			if err := arb.Admit(j.ID, j.Tenant); err != nil {
				return err
			}
			gate := func(req pipeline.GrantRequest) int {
				slack := req.Deadline - req.Now - req.PredictedRemaining
				g, gerr := arb.Exchange(j.ID, req.Stage, req.Want, slack)
				if gerr != nil {
					return req.Want
				}
				return g
			}
			run, err := pipeline.Start(j.Scenario, pipeline.RunConfig{Gate: gate})
			if err != nil {
				res.Jobs[idx].Err = fmt.Errorf("start %s: %w", j.ID, err)
				arb.Done(j.ID)
				continue
			}
			live = append(live, &liveRun{idx: idx, run: run})
		}
		return nil
	}

	finish := func(li int) error {
		lr := live[li]
		live = append(live[:li], live[li+1:]...)
		a, err := lr.run.Finish()
		jr := &res.Jobs[lr.idx]
		if err != nil {
			jr.Err = err
		} else {
			jr.Artifacts = a
			jr.Digest = pipeline.ComputeDigest(a)
			jr.DeadlineMet = a.Result.JCT <= a.Deadline
		}
		arb.Done(jobs[lr.idx].ID)
		return admit()
	}

	if err := admit(); err != nil {
		return nil, err
	}
	for len(live) > 0 {
		// Pick the live run with the smallest virtual clock, ties broken
		// by submission index.
		pick := 0
		for i := 1; i < len(live); i++ {
			if live[i].run.Now() < live[pick].run.Now() ||
				(live[i].run.Now() == live[pick].run.Now() && live[i].idx < live[pick].idx) {
				pick = i
			}
		}
		lr := live[pick]
		if lr.run.Done() {
			if err := finish(pick); err != nil {
				return nil, err
			}
			continue
		}
		if err := lr.run.Step(); err != nil {
			res.Jobs[lr.idx].Err = err
			live = append(live[:pick], live[pick+1:]...)
			arb.Done(jobs[lr.idx].ID)
			if err := admit(); err != nil {
				return nil, err
			}
			continue
		}
		if lr.run.Done() {
			if err := finish(pick); err != nil {
				return nil, err
			}
		}
	}
	res.Log = arb.Log()
	return res, nil
}
