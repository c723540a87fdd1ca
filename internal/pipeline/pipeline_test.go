package pipeline

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/executor"
	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/searchspace"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// faultyProfile is a noisy substrate: exponential queueing, failed
// provisioning and spot preemptions, so every provider stream matters.
func faultyProfile() (sim.CloudProfile, cloud.FaultModel) {
	cp := sim.DefaultCloudProfile()
	cp.Overheads = cloud.Overheads{
		QueueDelay:  stats.Exponential{MeanValue: 8},
		InitLatency: stats.Deterministic{Value: 15},
	}
	cp.DatasetGB = 12
	return cp, cloud.FaultModel{ProvisionFailureProb: 0.25, PreemptionMeanSeconds: 600}
}

// execute runs a fixed four-GPU-per-stage SHA job on the given substrate.
func execute(t *testing.T, clock *vclock.Clock, rng *stats.RNG, p *cloud.Provider, m *cluster.Manager) *executor.Result {
	t.Helper()
	s := spec.MustSHA(8, 1, 9, 3)
	mod := model.ResNet50()
	res, err := executor.Run(executor.Config{
		Spec:     s,
		Plan:     sim.Uniform(4, s.NumStages()),
		Model:    mod,
		Batch:    mod.BaseBatch,
		Configs:  searchspace.DefaultVisionSpace().SampleN(stats.NewRNG(5), s.TotalTrials()),
		Provider: p,
		Cluster:  m,
		Clock:    clock,
		RNG:      rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNewSubstrateMatchesHandWiring: NewSubstrate is exactly
// NewProvider → SetFaults → NewManager on the caller's clock and stream,
// so a run on it is bit-identical to one on a hand-wired substrate.
func TestNewSubstrateMatchesHandWiring(t *testing.T) {
	cp, faults := faultyProfile()

	clock := vclock.New()
	rng := stats.NewRNG(11)
	p, m, err := NewSubstrate(clock, rng.Split(), cp, faults)
	if err != nil {
		t.Fatal(err)
	}
	got := execute(t, clock, rng, p, m)

	hclock := vclock.New()
	hrng := stats.NewRNG(11)
	hp, err := cloud.NewProvider(hclock, hrng.Split(), cp.Pricing, cp.Overheads, cp.DatasetGB)
	if err != nil {
		t.Fatal(err)
	}
	if err := hp.SetFaults(faults); err != nil {
		t.Fatal(err)
	}
	hm, err := cluster.NewManager(hp, cp.Instance, hclock)
	if err != nil {
		t.Fatal(err)
	}
	want := execute(t, hclock, hrng, hp, hm)

	if got.JCT != want.JCT || got.Cost != want.Cost || got.BestTrial != want.BestTrial ||
		got.Preemptions != want.Preemptions || m.Retries() != hm.Retries() {
		t.Fatalf("substrate run diverged from hand-wired run: JCT %v/%v cost %v/%v best %d/%d preemptions %d/%d retries %d/%d",
			got.JCT, want.JCT, got.Cost, want.Cost, got.BestTrial, want.BestTrial,
			got.Preemptions, want.Preemptions, m.Retries(), hm.Retries())
	}
	if got.Preemptions == 0 && m.Retries() == 0 {
		t.Fatal("fault model never fired: the comparison exercised no provider stream")
	}
}

func TestNewSubstrateRejectsBadInputs(t *testing.T) {
	cp, _ := faultyProfile()
	if _, _, err := NewSubstrate(vclock.New(), stats.NewRNG(1), cp, cloud.FaultModel{ProvisionFailureProb: 2}); err == nil {
		t.Error("invalid fault model accepted")
	}
	bad := cp
	bad.DatasetGB = -1
	if _, _, err := NewSubstrate(vclock.New(), stats.NewRNG(1), bad, cloud.FaultModel{}); err == nil {
		t.Error("negative dataset size accepted")
	}
	bad = cp
	bad.Instance.GPUs = 0
	if _, _, err := NewSubstrate(vclock.New(), stats.NewRNG(1), bad, cloud.FaultModel{}); err == nil {
		t.Error("GPU-less worker type accepted")
	}
}

// scenario is a small hand-built scenario (replanning off, so it can be
// gated) on the faulty substrate.
func scenario() Scenario {
	cp, faults := faultyProfile()
	m := model.ResNet50()
	return Scenario{
		BatchSeed:      3,
		Spec:           spec.MustSHA(8, 1, 9, 3),
		Model:          m,
		Space:          searchspace.DefaultVisionSpace(),
		Profile:        cp,
		Faults:         faults,
		RestoreSeconds: 2,
		MaxGPUs:        16,
		Samples:        4,
		DeadlineFactor: 1.5,
	}
}

// TestPassThroughGateOnlyRecordsGrants: a gate that grants every request
// in full changes nothing but the recorded grants, so gating itself (the
// slack computation, the clamp, the journaled decision) never perturbs a
// run.
func TestPassThroughGateOnlyRecordsGrants(t *testing.T) {
	sc := scenario()
	plain, err := Run(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := journal.NewWriter(journal.NewMemBackend(), 7)
	gated, err := Run(sc, RunConfig{Journal: w, Gate: func(req GrantRequest) int { return req.Want }})
	if err != nil {
		t.Fatal(err)
	}
	if len(gated.Grants) != sc.Spec.NumStages() {
		t.Fatalf("%d grants for %d stages", len(gated.Grants), sc.Spec.NumStages())
	}
	for _, g := range gated.Grants {
		if g.Granted != g.Want {
			t.Fatalf("pass-through gate granted %d of %d at stage %d", g.Granted, g.Want, g.Stage)
		}
	}
	gated.Grants = nil
	if got, want := ComputeDigest(gated), ComputeDigest(plain); got != want {
		t.Fatalf("pass-through gate changed the run: digest %016x, ungated %016x", uint64(got), uint64(want))
	}
}
