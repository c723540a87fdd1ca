package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/serve"
)

const (
	// redriveMax bounds how many completed replay tuples the traced run
	// re-drives through a timed journal.
	redriveMax = 256
	// serveSnapshotInterval is the server's default journal snapshot
	// interval, in records.
	serveSnapshotInterval = 64
)

// timedBackend wraps the journal's file backend and records a span around
// every append and snapshot. parent points at the span the run is in.
type timedBackend struct {
	*journal.FileBackend
	tr      *tracer
	parent  *spanID
	exp     int64
	appends int
}

func (b *timedBackend) Append(payload []byte) error {
	s := b.tr.begin("journal.append", *b.parent, b.exp)
	err := b.FileBackend.Append(payload)
	b.tr.end(s)
	b.appends++
	return err
}

func (b *timedBackend) PutSnapshot(seq uint64, payload []byte) error {
	s := b.tr.begin("journal.snapshot", *b.parent, b.exp)
	err := b.FileBackend.PutSnapshot(seq, payload)
	b.tr.end(s)
	return err
}

// redrive re-executes one completed experiment from its replay tuple with
// a journal on disk, as the server ran it, under spans: the recorded
// grants are scripted, and the digest must match the server's. It returns
// the run's artifacts and its journal record count.
func redrive(tr *tracer, dir string, exp int64, t serve.ReplayTuple) (harness.Scenario, *harness.Artifacts, int, error) {
	sc, err := serve.BuildScenario(t.Submission)
	if err != nil {
		return sc, nil, 0, err
	}
	fb, err := journal.NewFileBackend(filepath.Join(dir, t.ID))
	if err != nil {
		return sc, nil, 0, err
	}
	cur := noSpan
	tb := &timedBackend{FileBackend: fb, tr: tr, parent: &cur, exp: exp}
	jw := journal.NewWriter(tb, serveSnapshotInterval)

	root := tr.begin("bench.exp", noSpan, exp)
	cur = tr.begin("harness.start", root, exp)
	r, err := harness.StartScenario(sc, harness.RunConfig{Journal: jw, Gate: serve.ScriptedGrants(t.Grants)})
	tr.end(cur)
	var a *harness.Artifacts
	if err == nil {
		cur = tr.begin("executor.exec", root, exp)
		for !r.Done() && err == nil {
			err = r.Step()
		}
		tr.end(cur)
	}
	if err == nil {
		cur = tr.begin("harness.finish", root, exp)
		a, err = r.Finish()
		tr.end(cur)
	}
	tr.end(root)
	if cerr := fb.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if got := serve.DigestString(harness.ComputeDigest(a)); got != t.Digest {
			err = fmt.Errorf("re-driven digest %s, server reported %s", got, t.Digest)
		}
	}
	return sc, a, tb.appends, err
}

func runServeDurable(cfg runConfig) (*report, error) {
	rep := newReport()
	// A traced run measures two phases (untraced, then traced), each
	// half as long and with one burst.
	load := serveLoad{seconds: cfg.seconds, minOpen: serveOpenMin, bursts: serveBursts}
	if cfg.trace {
		load = serveLoad{seconds: cfg.seconds / 2, minOpen: serveOpenMin / 2, bursts: 1}
	}
	var setups []float64
	var open []arrival
	var burst [][]arrival
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		var err error
		open, burst, err = serveSetup(cfg.scratch, cfg.seed, load)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.values["setup_s"] = median(setups)

	if !cfg.trace {
		sr, err := servePhaseRun(rep, filepath.Join(cfg.scratch, "run"), nil, open, burst)
		if err != nil {
			return nil, err
		}
		sr.fillServer(rep)
		return rep, nil
	}

	if _, err := servePhaseRun(rep, filepath.Join(cfg.scratch, "base"), nil, open, burst); err != nil {
		return nil, err
	}
	untraced := maps.Clone(rep.values)
	tr := newTracer()
	sr, err := servePhaseRun(rep, filepath.Join(cfg.scratch, "traced"), tr, open, burst)
	if err != nil {
		return nil, err
	}
	sr.fillServer(rep)

	dir := filepath.Join(cfg.scratch, "redrive")
	lp := &layerProbes{}
	var records, events, preempt, n int
	for k, t := range sr.tuples {
		if k == redriveMax {
			break
		}
		n++
		rep.attempted++
		sc, a, recs, err := redrive(tr, dir, int64(k), t)
		if err == nil {
			err = lp.scenarioProbes(tr, int64(k), sc, a)
		}
		if err != nil {
			rep.fail("re-drive %s: %v", t.ID, err)
			continue
		}
		records += recs
		events += a.Steps
		preempt += a.Result.Preemptions
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	rep.values["journal.append_us_p50"] = percentile(tr.durations("journal.append"), 50) / 1e3
	rep.values["journal.snapshot_us_p50"] = percentile(tr.durations("journal.snapshot"), 50) / 1e3
	rep.values["journal.records_per_exp"] = ratio(float64(records), float64(n))
	rep.values["executor.events_per_exp"] = ratio(float64(events), float64(n))
	rep.values["executor.preemptions_per_exp"] = ratio(float64(preempt), float64(n))
	rep.values["executor.exec_ms_p50"] = percentile(tr.durations("executor.exec"), 50) / 1e6
	rep.values["executor.ns_per_event"] = ratio(tr.selfTotal("executor.exec"), float64(events))
	lp.fill(rep, tr)
	fillTraceCommon(rep, tr, untraced)
	return rep, nil
}
