package harness

import "repro/internal/pipeline"

// The run path lives in package pipeline. These names remain here because
// the end-to-end benchmark module (e2ebench) builds against them.
type (
	Scenario   = pipeline.Scenario
	Artifacts  = pipeline.Artifacts
	RunConfig  = pipeline.RunConfig
	Digest     = pipeline.Digest
	FleetEvent = pipeline.FleetEvent
)

// RunScenario executes one scenario end-to-end with no journal or gate.
func RunScenario(sc Scenario) (*Artifacts, error) { return pipeline.Run(sc, RunConfig{}) }

// StartScenario builds sc's run un-driven; see pipeline.Start.
func StartScenario(sc Scenario, rc RunConfig) (*pipeline.Running, error) {
	return pipeline.Start(sc, rc)
}

// ComputeDigest fingerprints the artifacts of one run.
func ComputeDigest(a *Artifacts) Digest { return pipeline.ComputeDigest(a) }

// CombineDigests folds per-scenario digests into one batch digest.
func CombineDigests(ds []Digest) Digest { return pipeline.CombineDigests(ds) }
