package main

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{hundred, 50, 50.5},
		{hundred, 99, 99.01},
	} {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if hundred[0] != 100 {
		t.Fatal("percentile modified its input")
	}
}

func TestWindowMedian(t *testing.T) {
	// Ten windows of 1 s; window w holds experiments with value w, except
	// that window 3 is empty and window 7 holds an outlier.
	var starts, vals []float64
	for w := 0; w < windows; w++ {
		if w == 3 {
			continue
		}
		v := float64(w)
		if w == 7 {
			v = 1000
		}
		starts = append(starts, float64(w)+0.5, float64(w)+0.6)
		vals = append(vals, v, v)
	}
	got := windowMedian(starts, windows, func(lo, hi int) float64 { return mean(vals[lo:hi]) })
	// Non-empty windows: 0 1 2 4 5 6 1000 8 9 → median 5.
	if got != 5 {
		t.Fatalf("windowMedian = %v, want 5", got)
	}
	// An experiment starting exactly at the end of the span lands in the
	// last window.
	if got := windowMedian([]float64{0, 10}, 10, func(lo, hi int) float64 { return float64(hi - lo) }); got != 1 {
		t.Fatalf("windowMedian over edge = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "bench.exp", start: 0, end: 100, parent: noSpan},
		{name: "planner.plan", start: 10, end: 40, parent: 0},
		{name: "executor.exec", start: 30, end: 60, parent: 0},   // overlaps plan
		{name: "journal.append", start: 90, end: 120, parent: 0}, // ends past its parent
		{name: "sim.new", start: 12, end: 20, parent: 1},
		{name: "probe.plan", start: 200, end: 250, parent: noSpan},
		{name: "planner.plan", start: 200, end: 240, parent: 5},
	}
	// Root: children cover [10,60] and [90,100] → 60 of 100.
	want := []int64{40, 22, 30, 30, 8, 10, 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	shares := layerSelfShares(spans, "bench.exp")
	total := 40.0 + 22 + 30 + 30 + 8
	for layer, w := range map[string]float64{
		"bench": 40 / total, "planner": 22 / total, "executor": 30 / total,
		"journal": 30 / total, "sim": 8 / total, "probe": 0,
	} {
		if !near(shares[layer], w) {
			t.Errorf("share[%s] = %v, want %v", layer, shares[layer], w)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x.y", noSpan, 1)
	tr.end(id)
	if id != noSpan {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr = newTracer()
	root := tr.begin("bench.exp", noSpan, 3)
	child := tr.begin("sim.new", root, 3)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[child].parent != root || tr.spans[root].end < tr.spans[child].end {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func TestScheduleRepeats(t *testing.T) {
	o1, b1 := schedule(7, 2000, serveRate, serveBacklog, 2)
	o2, b2 := schedule(7, 2000, serveRate, serveBacklog, 2)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("schedule is not a pure function of its seed")
	}
	o3, _ := schedule(8, 2000, serveRate, serveBacklog, 2)
	if reflect.DeepEqual(o1, o3) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson arrivals: increasing due instants, mean gap near 1/rate.
	for i := 1; i < len(o1); i++ {
		if o1[i].due < o1[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	meanGap := o1[len(o1)-1].due.Seconds() / float64(len(o1))
	if math.Abs(meanGap*serveRate-1) > 0.1 {
		t.Fatalf("mean gap %v s at rate %v/s", meanGap, serveRate)
	}
	// Every burst gives each tenant exactly its queue bound, and every
	// submission validates.
	for _, b := range b1 {
		per := map[string]int{}
		for _, a := range b {
			per[a.sub.Tenant]++
		}
		for tenant, n := range per {
			if n != serveQuota.MaxQueued {
				t.Fatalf("burst gives %s %d submissions, want %d", tenant, n, serveQuota.MaxQueued)
			}
		}
	}
	for _, a := range append(o1, b1[0]...) {
		if err := a.sub.Validate(); err != nil {
			t.Fatalf("invalid submission %+v: %v", a.sub, err)
		}
	}
}

func TestPaperGoldenGate(t *testing.T) {
	if err := checkPaperGolden(paperGolden); err != nil {
		t.Fatalf("golden rows no longer match: %v", err)
	}
	for field := 0; field < 5; field++ {
		bad := append([]goldenRow(nil), paperGolden...)
		r := &bad[field%len(bad)]
		switch field {
		case 0:
			r.plan = "(4, 4, 4, 5)"
		case 1:
			r.predJCT += "1"
		case 2:
			r.predCost = "4.5"
		case 3:
			r.realJCT = "860"
		case 4:
			r.realCost += "9"
		}
		if err := checkPaperGolden(bad); err == nil {
			t.Errorf("corrupted golden field %d accepted", field)
		}
	}
}

func TestChaosDigestGate(t *testing.T) {
	if err := checkChaosDigest(chaosGateSeed, chaosGateN, chaosGateDigest); err != nil {
		t.Fatalf("pinned digest: %v", err)
	}
	if err := checkChaosDigest(chaosGateSeed, chaosGateN, "71a7aec90ce75ead"); err == nil {
		t.Fatal("corrupted digest accepted")
	}
}

// TestPaperTracedRunCoversReplan checks that a short traced paper-sha run
// passes its gates and times the replan controller, which BENCHMARK.json
// otherwise reaches only through chaos-mix.
func TestPaperTracedRunCoversReplan(t *testing.T) {
	rep, err := runPaperSHA(runConfig{seed: 3, seconds: 0.2, trace: true, scratch: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("%d failed: %v", rep.failed, rep.problems)
	}
	for _, name := range []string{"replan.replan_us_p50", "replan.prescreen_us_p50", "planner.plan_ms_p50"} {
		if !(rep.values[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, rep.values[name])
		}
	}
}

func TestServeGates(t *testing.T) {
	ls, err := startServer(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	open, _ := schedule(3, 8, serveRate, serveBacklog, 0)
	var ids []string
	for _, a := range open {
		id, refused, _, err := ls.submit(a.sub)
		if err != nil || refused {
			t.Fatalf("submit: refused=%v err=%v", refused, err)
		}
		ids = append(ids, id)
	}
	var tuples []serve.ReplayTuple
	for _, id := range ids {
		for {
			var st serve.Status
			if _, err := ls.getJSON(ls.pollC, "/v1/experiments/"+id, &st); err != nil {
				t.Fatal(err)
			}
			if st.State == "done" {
				break
			}
			if st.State == "failed" {
				t.Fatalf("%s failed: %s", id, st.Error)
			}
			time.Sleep(pollPeriod)
		}
		var tp serve.ReplayTuple
		if _, err := ls.getJSON(ls.pollC, "/v1/experiments/"+id+"/replay", &tp); err != nil {
			t.Fatal(err)
		}
		tuples = append(tuples, tp)
	}
	if err := ls.close(); err != nil {
		t.Fatal(err)
	}
	log := ls.srv.FleetLog()

	for _, tp := range tuples {
		if err := checkReplay(tp); err != nil {
			t.Fatalf("valid tuple rejected: %v", err)
		}
	}
	bad := tuples[0]
	bad.Digest = fmt.Sprintf("%016x", ^uint64(0))
	if err := checkReplay(bad); err == nil {
		t.Fatal("corrupted replay digest accepted")
	}
	bad = tuples[1]
	bad.Submission.Seed++
	if err := checkReplay(bad); err == nil {
		t.Fatal("replay tuple with a changed seed accepted")
	}

	if err := checkFleet(log, serveCapacity, len(ids)); err != nil {
		t.Fatalf("valid fleet log rejected: %v", err)
	}
	var admit harness.FleetEvent
	for _, e := range log {
		if e.Kind == "admit" {
			admit = e
			break
		}
	}
	admit.Seq = len(log)
	if err := checkFleet(append(log, admit), serveCapacity, len(ids)); err == nil {
		t.Fatal("fleet log with a second admission accepted")
	}
}

func TestResultCarriesExactlyTheListedMetrics(t *testing.T) {
	rep := newReport()
	rep.attempted = 3
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		rep.values[m.name] = 1
	}
	for _, traced := range []bool{false, true} {
		out := result{Correct: true, Metrics: map[string]jsonMetric{}}
		if err := out.add(rep, traced, ""); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(out.Metrics) != len(want) || !out.Correct {
			t.Fatalf("traced=%v: %d metrics, correct=%v", traced, len(out.Metrics), out.Correct)
		}
		for _, m := range want {
			if out.Metrics[m.name].Unit != m.unit {
				t.Fatalf("metric %s: %+v", m.name, out.Metrics[m.name])
			}
		}
	}
	delete(rep.values, "setup_s")
	if err := (&result{Metrics: map[string]jsonMetric{}}).add(rep, false, ""); err == nil {
		t.Fatal("missing end-to-end metric not reported")
	}
	rep.fail("broken")
	out := result{Correct: true, Metrics: map[string]jsonMetric{}}
	_ = out.add(rep, true, "")
	if out.Correct || out.Failed != 1 {
		t.Fatalf("a failed attempt left correct=%v failed=%d", out.Correct, out.Failed)
	}
}

// TestRunLoad drives a short schedule with the poller on its own
// goroutine and inline in the submitter (the one-CPU mode), and checks
// that every experiment is seen done and timed.
func TestRunLoad(t *testing.T) {
	for _, inline := range []bool{false, true} {
		ls, err := startServer(filepath.Join(t.TempDir(), "data"))
		if err != nil {
			t.Fatal(err)
		}
		open, bursts := schedule(5, 40, 400, 16, 2)
		ph := runLoad(ls, nil, open, bursts, inline)
		if err := ls.close(); err != nil {
			t.Fatal(err)
		}
		if len(ph.problems) > 0 || ph.refused > 0 {
			t.Fatalf("inline=%v: problems %v, refused %d", inline, ph.problems, ph.refused)
		}
		if len(ph.completed) != 40+2*16 || len(ph.walls) != 40 || len(ph.burstRates) != 2 {
			t.Fatalf("inline=%v: %d completed, %d open-loop walls, %d bursts", inline, len(ph.completed), len(ph.walls), len(ph.burstRates))
		}
		for i, w := range ph.walls {
			if !(w > 0) || i > 0 && ph.dues[i] < ph.dues[i-1] {
				t.Fatalf("inline=%v: wall %d = %v ms, dues out of order", inline, i, w)
			}
		}
	}
}
