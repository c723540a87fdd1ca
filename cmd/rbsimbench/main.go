// Command rbsimbench measures the discrete-event simulation kernel at
// fleet scale and emits machine-readable results, so the 10^6-trial
// claim of ROADMAP item 3 is measured in CI rather than asserted.
//
// It drives three workloads:
//
//   - A fleet of concurrent trials (internal/fleet) on the timer-wheel
//     kernel at full scale — 10^6 trials by default — reporting events
//     per second, trials held, peak pending events, and steady-state
//     allocations per event (the dispatch path must report 0; the
//     binary exits nonzero otherwise).
//   - The same fleet on the binary-heap reference kernel at 1/10th
//     scale, for an apples-to-apples throughput comparison.
//   - The schedule+cancel cycle against a large standing backlog on
//     both kernels — the watchdog-timer pattern whose O(n) cost on the
//     old kernel motivated the wheel.
//
// It also replays one harness corpus scenario on both kernels and
// requires bit-identical digests, so the artifact records kernel
// equivalence alongside kernel speed.
//
// Usage:
//
//	rbsimbench -out BENCH_sim.json             # full run (10^6 trials)
//	rbsimbench -trials 100000 -out /dev/stdout # CI smoke scale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/vclock"
)

// FleetResult is one fleet-scale kernel measurement.
type FleetResult struct {
	// Kernel is "wheel" or "heap".
	Kernel string `json:"kernel"`
	// Trials is the concurrent trial population; every trial holds
	// pending events for the entire run.
	Trials int `json:"trials"`
	// Events is the number of dispatched opcode events; Cancels the
	// number of O(1) watchdog cancellations.
	Events  uint64 `json:"events"`
	Cancels uint64 `json:"cancels"`
	// PeakPending is the maximum number of events held concurrently.
	PeakPending int `json:"peak_pending"`
	// EventsPerSec is dispatched events per wall-clock second.
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocsPerEvent is steady-state heap allocations per event,
	// measured over the post-warmup window with GC disabled. The
	// dispatch path claim is exactly 0.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// VirtualSeconds and WallSeconds situate the run.
	VirtualSeconds float64 `json:"virtual_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
}

// CancelResult measures the schedule+cancel cycle against a standing
// backlog.
type CancelResult struct {
	Kernel  string  `json:"kernel"`
	Backlog int     `json:"backlog"`
	NsPerOp float64 `json:"ns_per_op"`
}

// ScenarioResult measures one harness corpus scenario end-to-end.
type ScenarioResult struct {
	Kernel      string  `json:"kernel"`
	Steps       int     `json:"steps"`
	StepsPerSec float64 `json:"steps_per_sec"`
	Digest      string  `json:"digest"`
}

// Output is the emitted artifact.
type Output struct {
	// Fleet holds the fleet-scale runs (wheel at full scale, heap at
	// comparison scale).
	Fleet []FleetResult `json:"fleet"`
	// Cancel holds the schedule+cancel microbenchmarks.
	Cancel []CancelResult `json:"cancel"`
	// Scenario holds the end-to-end harness replays per kernel.
	Scenario []ScenarioResult `json:"scenario"`
	// DigestMatch records whether the two kernels produced bit-identical
	// scenario digests.
	DigestMatch bool `json:"digest_match"`
}

// runFleet drives one fleet to completion, measuring throughput and
// steady-state allocations.
func runFleet(kernel string, mk func() *vclock.Clock, trials, iters int) (FleetResult, error) {
	clock := mk()
	f, err := fleet.New(clock, fleet.Config{
		Trials:          trials,
		Iters:           iters,
		MeanIterSeconds: 30,
		WatchdogSeconds: 120,
		Seed:            42,
	})
	if err != nil {
		return FleetResult{}, err
	}

	// Warmup: one full round of iteration events grows the slab, the
	// ready heap, and the fleet arrays to their steady-state sizes.
	warm := uint64(trials)
	for f.Stats().Events < warm {
		if !f.Step() {
			return FleetResult{}, fmt.Errorf("%s fleet drained during warmup", kernel)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startEvents := f.Stats().Events
	startWall := time.Now()
	for !f.Done() {
		if !f.Step() {
			return FleetResult{}, fmt.Errorf("%s fleet drained before completion", kernel)
		}
	}
	wall := time.Since(startWall).Seconds()
	runtime.ReadMemStats(&after)

	s := f.Stats()
	if s.Stalls != 0 {
		return FleetResult{}, fmt.Errorf("%s kernel lost %d iteration events (watchdogs fired)", kernel, s.Stalls)
	}
	measured := s.Events - startEvents
	return FleetResult{
		Kernel:         kernel,
		Trials:         s.Trials,
		Events:         s.Events,
		Cancels:        s.Cancels,
		PeakPending:    s.PeakPending,
		EventsPerSec:   float64(measured) / wall,
		AllocsPerEvent: float64(after.Mallocs-before.Mallocs) / float64(measured),
		VirtualSeconds: s.VirtualSeconds,
		WallSeconds:    wall,
	}, nil
}

// runCancel measures the schedule+cancel cycle against a standing
// backlog of pending events.
func runCancel(kernel string, mk func() *vclock.Clock, backlog, ops int) CancelResult {
	clock := mk()
	id := clock.RegisterDispatcher(func(op uint8, a, b int64) {})
	for i := 0; i < backlog; i++ {
		clock.AtOp(clock.Now()+vclock.Time(1+(i*7919)%backlog)*0.001, id, 0, 0, 0)
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		h := clock.AtOp(clock.Now()+vclock.Time(1+i%1000)*0.0005, id, 0, 0, 0)
		clock.Cancel(h)
	}
	return CancelResult{
		Kernel:  kernel,
		Backlog: backlog,
		NsPerOp: float64(time.Since(start).Nanoseconds()) / float64(ops),
	}
}

// runScenario replays one harness corpus scenario on the given kernel.
func runScenario(kernel string, mk func() *vclock.Clock) (ScenarioResult, error) {
	sc := harness.Generate(2, 52) // scatter regression scenario: busiest corpus member
	start := time.Now()
	a, err := pipeline.Run(sc, pipeline.RunConfig{NewClock: mk})
	if err != nil {
		return ScenarioResult{}, fmt.Errorf("%s scenario: %w", kernel, err)
	}
	wall := time.Since(start).Seconds()
	return ScenarioResult{
		Kernel:      kernel,
		Steps:       a.Steps,
		StepsPerSec: float64(a.Steps) / wall,
		Digest:      fmt.Sprintf("%016x", uint64(pipeline.ComputeDigest(a))),
	}, nil
}

func main() {
	trials := flag.Int("trials", 1_000_000, "concurrent trials for the wheel-kernel fleet run")
	iters := flag.Int("iters", 4, "iterations per trial")
	out := flag.String("out", "BENCH_sim.json", "output path for the JSON artifact")
	flag.Parse()

	var o Output
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "rbsimbench:", err)
		os.Exit(1)
	}

	// Fleet scale: wheel at full population, heap at 1/10th for the
	// throughput comparison (its log-factor and cancel cost make full
	// scale needlessly slow to measure).
	wf, err := runFleet("wheel", vclock.New, *trials, *iters)
	if err != nil {
		fail(err)
	}
	o.Fleet = append(o.Fleet, wf)
	heapTrials := *trials / 10
	if heapTrials < 1 {
		heapTrials = 1
	}
	hf, err := runFleet("heap", vclock.NewHeap, heapTrials, *iters)
	if err != nil {
		fail(err)
	}
	o.Fleet = append(o.Fleet, hf)

	// Schedule+cancel against a backlog.
	const backlog, ops = 128 << 10, 2_000_000
	o.Cancel = append(o.Cancel, runCancel("wheel", vclock.New, backlog, ops))
	o.Cancel = append(o.Cancel, runCancel("heap", vclock.NewHeap, backlog, ops))

	// End-to-end corpus scenario on both kernels; digests must match.
	ws, err := runScenario("wheel", vclock.New)
	if err != nil {
		fail(err)
	}
	hs, err := runScenario("heap", vclock.NewHeap)
	if err != nil {
		fail(err)
	}
	o.Scenario = append(o.Scenario, ws, hs)
	o.DigestMatch = ws.Digest == hs.Digest

	// Enforce the artifact's headline claims: zero-alloc dispatch and
	// kernel equivalence. A nonzero exit turns a regression into a CI
	// failure, not a quietly drifting number.
	if wf.AllocsPerEvent != 0 {
		fail(fmt.Errorf("wheel dispatch path allocated %.4f objects/event, want 0", wf.AllocsPerEvent))
	}
	if !o.DigestMatch {
		fail(fmt.Errorf("kernel digest divergence: wheel %s, heap %s", ws.Digest, hs.Digest))
	}

	data, err := json.MarshalIndent(&o, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wheel: %d trials, %.0f events/sec, %.4f allocs/event, peak %d pending\n",
		wf.Trials, wf.EventsPerSec, wf.AllocsPerEvent, wf.PeakPending)
	fmt.Printf("heap:  %d trials, %.0f events/sec (comparison scale)\n", hf.Trials, hf.EventsPerSec)
	fmt.Printf("cancel vs %d backlog: wheel %.0f ns/op, heap %.0f ns/op\n",
		backlog, o.Cancel[0].NsPerOp, o.Cancel[1].NsPerOp)
	fmt.Printf("scenario digests match: %v\n", o.DigestMatch)
}
