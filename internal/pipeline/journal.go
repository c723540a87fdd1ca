package pipeline

import (
	"repro/internal/cloud"
	"repro/internal/executor"
	"repro/internal/journal"
	"repro/internal/replan"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// allocI64 widens a plan allocation for its fixed-width journal encoding.
func allocI64(alloc []int) []int64 {
	if len(alloc) == 0 {
		return nil
	}
	out := make([]int64, len(alloc))
	for i, g := range alloc {
		out[i] = int64(g)
	}
	return out
}

// decisionRecord converts a replan decision into its journal record,
// which carries the full payload a trace event's note only renders.
func decisionRecord(d replan.Decision) *journal.Decision {
	return &journal.Decision{
		Seq:               int64(d.Seq),
		At:                float64(d.At),
		Reason:            string(d.Reason),
		Stage:             int64(d.Stage),
		Ratio:             d.Ratio,
		RemainingDeadline: d.RemainingDeadline,
		OldAlloc:          allocI64(d.OldPlan.Alloc),
		NewAlloc:          allocI64(d.NewPlan.Alloc),
		StaleJCT:          d.StaleEstimate.JCT,
		StaleCost:         d.StaleEstimate.Cost,
		NewJCT:            d.NewEstimate.JCT,
		NewCost:           d.NewEstimate.Cost,
		Adopted:           d.Adopted,
		Infeasible:        d.Infeasible,
	}
}

// captureSnapshot reads the full control-plane state for a journal
// snapshot: clock cursor, live plan and trial states, accrued billing,
// replan EWMAs, and RNG stream cursors. It is a pure read — no RNG
// draws, no mutation — so snapshotting never perturbs the run. job is
// nil for snapshots taken during executor.Start's first records, in
// every run alike, so recovery still verifies byte-identically.
func captureSnapshot(clock *vclock.Clock, job *executor.Job, provider *cloud.Provider,
	rec *trace.Recorder, ctl *replan.Controller, execRNG, provRNG *stats.RNG) *journal.Snapshot {
	now := clock.Now()
	s := &journal.Snapshot{
		VNow:           float64(now),
		ClockSeq:       clock.Seq(),
		Stage:          -1,
		TotalCost:      provider.TotalCost(now),
		DataCost:       provider.DataCost(),
		Instances:      int64(len(provider.Instances())),
		BusyGPUSeconds: rec.BusyGPUSeconds(),
		ExecRNG:        execRNG.State(),
		ProviderRNG:    provRNG.State(),
	}
	if job != nil {
		s.Stage = int64(job.Stage())
		s.Alloc = allocI64(job.CurrentPlan().Alloc)
		s.ExecFold = job.StateFold()
		for _, t := range job.Trials() {
			acc, ok := t.LatestAccuracy()
			s.Trials = append(s.Trials, journal.TrialSnap{
				ID:       int64(t.ID()),
				State:    int64(t.State()),
				CumIters: int64(t.CumIters()),
				HasAcc:   ok,
				Acc:      acc,
			})
		}
	}
	if ctl != nil {
		ds := ctl.DetectorState()
		s.HasReplan = true
		s.TotalObs = int64(ds.TotalObs)
		for _, a := range ds.Allocs {
			s.Allocs = append(s.Allocs, journal.AllocEWMA{
				GPUs: int64(a.GPUs), EWMA: a.EWMA, Count: int64(a.Count),
			})
		}
		s.OverheadEWMA = ds.OverheadEWMA
		s.OverheadCount = int64(ds.OverheadCount)
		s.Armed = ds.Armed
		s.LastReplan = float64(ds.LastReplan)
		s.Decisions = int64(ds.Decisions)
	}
	return s
}
