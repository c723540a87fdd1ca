package pipeline

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Scenario is one end-to-end experiment run: a chaos-generated scenario
// (harness.Generate reconstructs it from (BatchSeed, Index)) or a serve
// submission (serve.BuildScenario). Start derives every runtime random
// stream from (BatchSeed, Index), so the run is a pure function of the
// scenario and, for gated runs, its grant sequence.
type Scenario struct {
	// BatchSeed and Index identify the scenario within its batch.
	BatchSeed uint64
	Index     int

	// Spec is the sampled experiment structure (stages × trials × iters).
	Spec *spec.ExperimentSpec
	// Model is the workload (zoo architecture with rescaled noise).
	Model *model.Model
	// Space is the hyperparameter space configurations are drawn from.
	Space *searchspace.Space
	// Profile bundles instance type, pricing table and provisioning
	// overheads.
	Profile sim.CloudProfile
	// Faults is the injected provider fault model.
	Faults cloud.FaultModel
	// RestoreSeconds is the checkpoint-restore latency at migrations.
	RestoreSeconds float64
	// DisablePlacement scatters workers (the locality ablation path).
	DisablePlacement bool
	// MaxGPUs caps the planner's peak cluster size.
	MaxGPUs int
	// Samples is the simulator's Monte-Carlo sample count.
	Samples int
	// DeadlineFactor scales the analytic static-cluster JCT bound into
	// the job deadline. Factors near or below 1 are often infeasible,
	// deliberately exercising the planner-failure fallback path.
	DeadlineFactor float64
	// Estimator selects the simulator's Monte-Carlo estimator mode, so
	// the chaos sweep exercises both the incremental segment estimator
	// and the full-DAG reference.
	Estimator sim.EstimatorMode
	// Drift injects a mid-run latency regime change the planner did not
	// see: every iteration starting after the drift onset runs Factor×
	// slower (or faster) than profiled.
	Drift DriftModel
	// ReplanEnabled wires the online replanning controller into the
	// executor; disabled runs exercise the stale-plan baseline.
	ReplanEnabled bool
	// DriftThreshold is the replan controller's EWMA trigger threshold.
	DriftThreshold float64
	// ReplanCooldown is the minimum virtual time between replans.
	ReplanCooldown float64
	// ArbiterCaps, when non-nil, runs the scenario behind a scripted
	// stage-boundary arbiter: stage i's allocation is capped at
	// ArbiterCaps[i] GPUs, exercising the multi-tenant grant gate inside
	// the chaos sweep. Caps are part of the scenario (a pure function of
	// seed and index), so capped runs replay like any other. Capped
	// scenarios never enable replanning: the gate and the replan
	// controller both rewrite the live plan.
	ArbiterCaps []int
}

// DriftModel describes an injected latency regime change: from virtual
// time deadline×StartFraction onward, iteration latencies are multiplied
// by Factor. The zero value (or Factor 1) means no drift.
type DriftModel struct {
	Factor        float64
	StartFraction float64
}

// Active reports whether the model changes anything.
func (d DriftModel) Active() bool { return d.Factor > 0 && d.Factor != 1 }

// Stream indices for the per-scenario RNG tree. Generation, the run and
// the crash fault model never share a stream, so adding draws to one
// phase cannot shift another. StreamGenerate and StreamCrash are drawn by
// the chaos harness (scenario generation and crash-point selection); the
// rest belong to the run.
const (
	StreamGenerate = iota
	streamSim
	streamProvider
	streamExecutor
	streamConfigs
	streamReplan
	StreamCrash
)

// ScenarioRoot returns the root RNG of scenario (seed, index). Stream is
// pure, so repeated calls yield identical children.
func ScenarioRoot(seed uint64, index int) *stats.RNG {
	return stats.NewRNG(seed).Stream(uint64(index))
}

// String renders the scenario compactly for failure reports.
func (sc Scenario) String() string {
	return fmt.Sprintf(
		"seed=%d index=%d spec=%v model=%s inst=%s billing=%v market=%v minCharge=%gs dataGB=%.1f "+
			"faults={pfail=%.3f preemptMean=%.0fs} restore=%.1fs scatter=%v maxGPUs=%d deadlineFactor=%.2f estimator=%v "+
			"drift={x%.1f@%.2f} replan=%v threshold=%.2f cooldown=%.0fs caps=%v",
		sc.BatchSeed, sc.Index, sc.Spec, sc.Model.Name, sc.Profile.Instance.Name,
		sc.Profile.Pricing.Billing, sc.Profile.Pricing.Market, sc.Profile.Pricing.MinChargeSeconds,
		sc.Profile.DatasetGB, sc.Faults.ProvisionFailureProb, sc.Faults.PreemptionMeanSeconds,
		sc.RestoreSeconds, sc.DisablePlacement, sc.MaxGPUs, sc.DeadlineFactor, sc.Estimator,
		sc.Drift.Factor, sc.Drift.StartFraction, sc.ReplanEnabled, sc.DriftThreshold, sc.ReplanCooldown,
		sc.ArbiterCaps)
}
