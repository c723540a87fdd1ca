// Package pipeline is the one run path of the system: spec → simulation
// → planner → placement → elastic executor on the virtual clock, with
// optional write-ahead journaling, stage-boundary arbitration and online
// replanning. Start builds a Scenario's run and returns it un-driven;
// Run drives it to completion; ComputeDigest fingerprints the result.
// The serve control plane, the chaos harness and the offline replay
// verifier all run experiments through Start.
//
// NewSubstrate is the cloud half on its own — a provider with its fault
// model armed and a cluster manager over it — for callers that plan
// differently (core's policy and profiler switch, the paper experiments'
// fixed plans, the ASHA baseline) but execute on the same substrate.
//
// Every random stream is supplied by the caller or derived from the
// scenario's (BatchSeed, Index), so a run is a pure function of its
// inputs and replays bit-identically.
package pipeline

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// NewSubstrate builds the simulated cloud one run executes on: a
// provider on clock drawing from rng, billed and provisioned per cp, with
// faults injected, and a cluster manager of cp.Instance workers over it.
// rng is the provider's own stream. The caller supplies it because each
// caller derives its streams differently, and its pinned results depend
// on that derivation.
func NewSubstrate(clock *vclock.Clock, rng *stats.RNG, cp sim.CloudProfile, faults cloud.FaultModel) (*cloud.Provider, *cluster.Manager, error) {
	provider, err := cloud.NewProvider(clock, rng, cp.Pricing, cp.Overheads, cp.DatasetGB)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: provider: %w", err)
	}
	if err := provider.SetFaults(faults); err != nil {
		return nil, nil, fmt.Errorf("pipeline: faults: %w", err)
	}
	mgr, err := cluster.NewManager(provider, cp.Instance, clock)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: cluster: %w", err)
	}
	return provider, mgr, nil
}
