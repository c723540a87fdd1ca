package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
)

// serve-durable: an in-process serve.Server with a data directory, reached
// over loopback HTTP by 8 tenants. An open-loop phase sends seeded Poisson
// arrivals at a fixed rate below saturation and times each experiment from
// the moment it was due; a burst phase then drains a fixed backlog. One
// connection submits, a second polls the status of experiments in flight,
// and the first poll that sees a final state marks completion.

const (
	serveTenants  = 8
	serveCapacity = 64
	// serveRate is the open-loop arrival rate. The server drains about
	// 330 experiments/s of this mix on 2 cores, so the open loop runs
	// near a third of saturation and its queue does not grow.
	serveRate = 100.0
	// serveOpenMin is the fewest open-loop arrivals of a measured run,
	// so at least that many experiments stand behind its p99.
	serveOpenMin = 1000
	// serveBacklog is one burst: 64 experiments per tenant, exactly the
	// per-tenant queue bound, so no burst submission is refused.
	// serveBursts bursts run one after another; exp_per_s is the median
	// of their drain rates.
	serveBacklog = 512
	serveBursts  = 3
	// pollPeriod paces the status poller: one pass over the experiments
	// in flight at most every period.
	pollPeriod = time.Millisecond
	// drainLimit bounds the wait for the experiments in flight after the
	// last submission of a phase or burst.
	drainLimit = 30 * time.Second
)

// serveQuota is the per-tenant quota: rbserve's defaults, with the
// queue bound raised to hold the burst.
var serveQuota = serve.Quota{MaxQueued: serveBacklog / serveTenants, MaxLive: 4, MaxGPUs: 32}

// shape is one kind of submission in the traffic mix.
type shape struct {
	model   string
	stages  [][2]int
	maxGPUs int
	factor  float64
}

// serveShapes is the traffic cycle: arrival k has shape k%4 — the
// paper-scale SHA(32,1,50,η=3) structure, then the three small shapes the
// serve tests use. A fixed cycle keeps the mix's cost repeatable.
var serveShapes = []shape{
	{"resnet101", [][2]int{{32, 1}, {10, 3}, {3, 9}, {1, 37}}, 32, 2},
	{"resnet50", [][2]int{{4, 1}, {2, 1}}, 4, 2},
	{"resnet50", [][2]int{{4, 2}, {2, 2}}, 2, 4},
	{"resnet50", [][2]int{{8, 4}, {4, 4}, {2, 6}}, 8, 1.5},
}

// arrival is one scheduled submission; due is its offset from the start
// of its phase.
type arrival struct {
	due time.Duration
	sub serve.Submission
}

// schedule returns the open-loop arrivals (n Poisson arrivals at rate per
// second) and bursts backlogs of backlog submissions each (spread evenly
// over the tenants). It is a pure function of its arguments.
func schedule(seed uint64, n int, rate float64, backlog, bursts int) (open []arrival, burst [][]arrival) {
	r := stats.NewRNG(seed).Stream(0x5e7e)
	sub := func(k, tenant int) serve.Submission {
		sh := serveShapes[k%len(serveShapes)]
		return serve.Submission{
			Tenant: fmt.Sprintf("tenant-%d", tenant), Name: fmt.Sprintf("arrival-%d", k),
			Model: sh.model, Stages: sh.stages, Seed: r.Uint64(),
			MaxGPUs: sh.maxGPUs, DeadlineFactor: sh.factor,
		}
	}
	var t float64
	for k := 0; k < n; k++ {
		t += -math.Log(1-r.Float64()) / rate
		open = append(open, arrival{due: time.Duration(t * float64(time.Second)), sub: sub(k, r.Intn(serveTenants))})
	}
	k := n
	for b := 0; b < bursts; b++ {
		var bl []arrival
		for j := 0; j < backlog; j++ {
			bl = append(bl, arrival{sub: sub(k, j%serveTenants)})
			k++
		}
		burst = append(burst, bl)
	}
	return open, burst
}

// serveLoad sizes one serve phase: the open loop runs for about seconds
// (at least minOpen arrivals), then bursts backlogs drain.
type serveLoad struct {
	seconds float64
	minOpen int
	bursts  int
}

// schedule returns the load's arrivals for seed.
func (l serveLoad) schedule(seed uint64) ([]arrival, [][]arrival) {
	return schedule(seed, max(l.minOpen, int(serveRate*l.seconds)), serveRate, serveBacklog, l.bursts)
}

// liveServer is a serve.Server behind a loopback listener, with the
// client connections of the load: one submits, one polls — the same one
// on a one-CPU machine, so the load never holds more connections than
// there are CPUs.
type liveServer struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	dataDir string
	submitC *http.Client
	pollC   *http.Client
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// startServer builds a durable server over dataDir, recovers it (as
// rbserve does at start) and serves it on a loopback port; both clients
// are connected before it returns.
func startServer(dataDir string) (*liveServer, error) {
	srv, err := serve.NewServer(serve.Config{Capacity: serveCapacity, Quota: serveQuota, DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	if _, err := srv.Recover(); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		url: "http://" + ln.Addr().String(), dataDir: dataDir,
		submitC: newClient(),
	}
	ls.pollC = ls.submitC
	if !loadInline() {
		ls.pollC = newClient()
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	for _, c := range []*http.Client{ls.submitC, ls.pollC} {
		var fs serve.FleetStats
		if _, err := ls.getJSON(c, "/v1/stats", &fs); err != nil {
			ls.close()
			return nil, fmt.Errorf("connecting: %w", err)
		}
	}
	return ls, nil
}

// close stops the listener, waits for every experiment driver, and drops
// the client connections.
func (ls *liveServer) close() error {
	err := ls.hs.Close()
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.srv.Close()
	ls.submitC.CloseIdleConnections()
	ls.pollC.CloseIdleConnections()
	return err
}

// getJSON GETs path and decodes a 200 body into v, returning the call's
// duration.
func (ls *liveServer) getJSON(c *http.Client, path string, v any) (time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Get(ls.url + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return d, json.Unmarshal(body, v)
}

// submit POSTs one submission. It returns the accepted experiment's id,
// whether the server refused it with 429, and the call's duration.
func (ls *liveServer) submit(sub serve.Submission) (id string, refused bool, d time.Duration, err error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return "", false, 0, err
	}
	t0 := time.Now()
	resp, err := ls.submitC.Post(ls.url+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d = time.Since(t0)
	if err != nil {
		return "", false, d, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st serve.Status
		if err := json.Unmarshal(data, &st); err != nil {
			return "", false, d, err
		}
		return st.ID, false, d, nil
	case http.StatusTooManyRequests:
		return "", true, d, nil
	default:
		return "", false, d, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
}

// flight is one submitted experiment the poller has not seen finish.
type flight struct {
	id    string
	due   time.Time
	burst bool
}

// finished is a completed experiment as the poller saw it.
type finished struct {
	flight
	seen time.Time
	st   serve.Status
}

// poller polls the status of experiments in flight over its own
// connection. The submitter adds flights; the poller moves them to done.
type poller struct {
	ls *liveServer
	tr *tracer

	mu       sync.Mutex
	inflight []flight
	done     []finished
	statuses []float64 // ms per GET
	problems []string
}

func (p *poller) add(f flight) {
	p.mu.Lock()
	p.inflight = append(p.inflight, f)
	p.mu.Unlock()
}

func (p *poller) pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inflight)
}

// pass polls every experiment in flight once, oldest first.
func (p *poller) pass() {
	p.mu.Lock()
	batch := append([]flight(nil), p.inflight...)
	p.mu.Unlock()
	var keep []flight
	var done []finished
	var durs []float64
	var problems []string
	for _, f := range batch {
		s := p.tr.begin("serve.status", noSpan, -1)
		var st serve.Status
		d, err := p.ls.getJSON(p.ls.pollC, "/v1/experiments/"+f.id, &st)
		p.tr.end(s)
		now := time.Now()
		durs = append(durs, ms(d))
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("status %s: %v", f.id, err))
		case st.State == "done":
			done = append(done, finished{flight: f, seen: now, st: st})
		case st.State == "failed":
			problems = append(problems, fmt.Sprintf("experiment %s failed: %s", f.id, st.Error))
		default:
			keep = append(keep, f)
		}
	}
	p.mu.Lock()
	// Flights added during the pass follow the polled prefix.
	p.inflight = append(keep, p.inflight[len(batch):]...)
	p.done = append(p.done, done...)
	p.statuses = append(p.statuses, durs...)
	p.problems = append(p.problems, problems...)
	p.mu.Unlock()
}

// paced runs one pass and then waits out the rest of the poll period.
func (p *poller) paced() {
	t0 := time.Now()
	p.pass()
	if d := pollPeriod - time.Since(t0); d > 0 {
		time.Sleep(d)
	}
}

// servePhase is one run of the load against a fresh server.
type servePhase struct {
	open, burst int
	// dues, walls and lags describe the open-loop experiments, ordered
	// by due instant: s since the phase started, ms from due to seen
	// done, ms from due to sent.
	dues, walls, lags []float64
	span              float64   // s the open loop was scheduled over
	submits           []float64 // ms per POST
	statuses          []float64 // ms per GET
	burstRates        []float64 // experiments per second, per burst
	use               usage
	completed         []finished
	refused           int
	problems          []string
	rss               *rssSampler
	end               float64 // s from the phase's start to the last burst drained
}

// loadInline reports whether the load runs on one goroutine: with one CPU
// the submitter also polls, so the load never uses more goroutines than
// there are CPUs.
func loadInline() bool { return runtime.NumCPU() < 2 }

// runLoad drives one open-loop phase and then the bursts against ls. The
// poller has its own goroutine unless inline, when the submitter polls
// while it waits.
func runLoad(ls *liveServer, tr *tracer, open []arrival, bursts [][]arrival, inline bool) *servePhase {
	ph := &servePhase{open: len(open)}
	for _, b := range bursts {
		ph.burst += len(b)
	}
	p := &poller{ls: ls, tr: tr}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if !inline {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.paced()
			}
		}()
	}
	waitUntil := func(t time.Time) {
		for inline && time.Until(t) > pollPeriod {
			p.paced()
		}
		if d := time.Until(t); d > 0 {
			time.Sleep(d)
		}
	}
	drain := func() {
		deadline := time.Now().Add(drainLimit)
		for p.pending() > 0 {
			if time.Now().After(deadline) {
				ph.problems = append(ph.problems, fmt.Sprintf("%d experiment(s) not done after %v", p.pending(), drainLimit))
				return
			}
			ph.rss.sample()
			if inline {
				p.paced()
			} else {
				time.Sleep(pollPeriod)
			}
		}
	}
	send := func(k int, a arrival, due time.Time, burst bool) {
		s := tr.begin("serve.submit", noSpan, int64(k))
		if !burst {
			ph.lags = append(ph.lags, ms(time.Since(due)))
		}
		id, refused, d, err := ls.submit(a.sub)
		tr.end(s)
		ph.submits = append(ph.submits, ms(d))
		ph.rss.sample()
		switch {
		case err != nil:
			ph.problems = append(ph.problems, err.Error())
		case refused:
			ph.refused++
		default:
			p.add(flight{id: id, due: due, burst: burst})
		}
	}

	before := readUsage()
	start := time.Now()
	ph.rss = newRSSSampler(start)
	for k, a := range open {
		due := start.Add(a.due)
		waitUntil(due)
		send(k, a, due, false)
	}
	drain()
	if len(open) > 0 {
		ph.span = open[len(open)-1].due.Seconds()
	}
	k := len(open)
	for _, b := range bursts {
		tb := time.Now()
		for _, a := range b {
			send(k, a, tb, true)
			k++
		}
		drain()
		ph.burstRates = append(ph.burstRates, ratio(float64(len(b)), time.Since(tb).Seconds()))
	}
	ph.use.add(before, readUsage())
	ph.end = time.Since(start).Seconds()
	close(stop)
	wg.Wait()

	ph.completed = p.done
	ph.statuses = p.statuses
	ph.problems = append(ph.problems, p.problems...)
	var opened []finished
	for _, f := range p.done {
		if !f.burst {
			opened = append(opened, f)
		}
	}
	sort.Slice(opened, func(i, j int) bool { return opened[i].due.Before(opened[j].due) })
	for _, f := range opened {
		ph.dues = append(ph.dues, f.due.Sub(start).Seconds())
		ph.walls = append(ph.walls, ms(f.seen.Sub(f.due)))
	}
	return ph
}

// fill writes a phase's metrics (end-to-end names and their per-layer
// aliases) into rep and counts its attempts and failures.
func (ph *servePhase) fill(rep *report) {
	rep.attempted += ph.open + ph.burst
	for _, p := range ph.problems {
		rep.fail("%s", p)
	}
	for k := 0; k < ph.refused; k++ {
		rep.fail("submission refused with 429")
	}
	n := float64(len(ph.completed))
	rep.values["exp_wall_ms_p50"] = windowMedian(ph.dues, ph.span, func(lo, hi int) float64 {
		return percentile(ph.walls[lo:hi], 50)
	})
	rep.values["exp_wall_ms_p99"] = percentile(ph.walls, 99)
	rep.values["exp_per_s"] = median(ph.burstRates)
	rep.values["cpu_ms_per_exp"] = ratio(ms(ph.use.cpu()), n)
	rep.values["peak_rss_mb"] = ph.rss.peakMB(ph.end)
	rep.values["submit_ms_p99"] = percentile(ph.submits, 99)
	rep.values["status_ms_p99"] = percentile(ph.statuses, 99)
	rep.values["bench.gen_lag_ms_p99"] = percentile(ph.lags, 99)
	rep.values["go.alloc_kb_per_exp"] = ratio(float64(ph.use.allocBytes)/1024, n)
	rep.values["go.gc_cpu_frac"] = ratio(ph.use.gcCPU, ph.use.cpu().Seconds())
	rep.values["os.sys_cpu_frac"] = ratio(float64(ph.use.sys), float64(ph.use.cpu()))
	rep.values["serve.rejects"] = float64(ph.refused)

	var cost, wait, runMS, jr, cr []float64
	var planned, missed float64
	for _, f := range ph.completed {
		st := f.st
		cost = append(cost, st.Cost)
		wait = append(wait, 1e3*(st.StartedAt-st.SubmittedAt))
		runMS = append(runMS, 1e3*(st.FinishedAt-st.StartedAt))
		if st.Planned {
			planned++
			if st.JCT > st.Deadline {
				missed++
			}
			jr = append(jr, st.JCT/st.PredictedJCT)
			cr = append(cr, st.Cost/st.PredictedCost)
		}
	}
	rep.values["sim_cost_usd_mean"] = mean(cost)
	rep.values["sim_cost_usd_p50"] = median(cost)
	rep.values["serve.sim_cost_usd_mean"] = mean(cost)
	rep.values["serve.deadline_miss_frac"] = ratio(missed, planned)
	rep.values["serve.queue_wait_ms_p50"] = percentile(wait, 50)
	rep.values["serve.queue_wait_ms_p99"] = percentile(wait, 99)
	rep.values["serve.run_ms_p50"] = percentile(runMS, 50)
	rep.values["sim.pred_jct_ratio_p50"] = median(jr)
	rep.values["sim.pred_cost_ratio_p50"] = median(cr)
}

// serveRun is one serve phase with what its gates and the data
// directory walk found.
type serveRun struct {
	ph       *servePhase
	tuples   []serve.ReplayTuple
	verifyMS []float64
	files    int
	bytes    int64
	livePeak int
	grants   int
	shrunk   int
}

// servePhaseRun starts a fresh durable server under dir, runs the load,
// drains, and runs the serve gates: the fleet oracle on the arbiter log
// and every replay tuple verified offline.
func servePhaseRun(rep *report, dir string, tr *tracer, open []arrival, burst [][]arrival) (*serveRun, error) {
	ls, err := startServer(filepath.Join(dir, "data"))
	if err != nil {
		return nil, err
	}
	out := &serveRun{ph: runLoad(ls, tr, open, burst, loadInline())}
	out.ph.fill(rep)

	for _, f := range out.ph.completed {
		var t serve.ReplayTuple
		if _, err := ls.getJSON(ls.pollC, "/v1/experiments/"+f.id+"/replay", &t); err != nil {
			rep.gate(fmt.Errorf("replay tuple %s: %w", f.id, err))
			continue
		}
		out.tuples = append(out.tuples, t)
	}
	// The fleet log is read once close has waited for every experiment
	// driver: a driver records its "done" event after the experiment's
	// status already reads done.
	if err := ls.close(); err != nil {
		return nil, err
	}
	log := ls.srv.FleetLog()
	live := 0
	for _, e := range log {
		switch e.Kind {
		case "admit":
			live++
			out.livePeak = max(out.livePeak, live)
		case "done":
			live--
		case "grant":
			out.grants++
			if e.Granted < e.Want {
				out.shrunk++
			}
		}
	}
	rep.gate(checkFleet(log, serveCapacity, out.ph.open+out.ph.burst))
	out.files, out.bytes, err = dirStats(ls.dataDir)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(ls.dataDir); err != nil {
		return nil, err
	}

	// Verify every tuple on as many goroutines as there are CPUs.
	errs := make([]error, len(out.tuples))
	durs := make([]float64, len(out.tuples))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				errs[i] = checkReplay(out.tuples[i])
				durs[i] = ms(time.Since(t0))
			}
		}()
	}
	for i := range out.tuples {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		rep.gate(err)
	}
	out.verifyMS = durs
	return out, nil
}

// fillServer writes the per-layer metrics a serve run derives from the
// server side.
func (sr *serveRun) fillServer(rep *report) {
	n := float64(len(sr.ph.completed))
	rep.values["serve.live_peak"] = float64(sr.livePeak)
	rep.values["serve.grants_per_exp"] = ratio(float64(sr.grants), n)
	rep.values["serve.shrunk_grant_frac"] = ratio(float64(sr.shrunk), float64(sr.grants))
	rep.values["serve.replay_verify_ms_p50"] = median(sr.verifyMS)
	rep.values["journal.files_per_exp"] = ratio(float64(sr.files), n)
	rep.values["journal.bytes_per_exp"] = ratio(float64(sr.bytes), n)
}

// serveSetup is one set-up: the schedule, and a fresh durable server
// started as rbserve starts one (recovery over its empty data directory)
// with both client connections made. The server and its data are torn
// down again; the schedule is returned.
func serveSetup(dir string, seed uint64, load serveLoad) (open []arrival, burst [][]arrival, err error) {
	open, burst = load.schedule(seed)
	ls, err := startServer(filepath.Join(dir, "setup"))
	if err != nil {
		return nil, nil, err
	}
	err = ls.close()
	if rmErr := os.RemoveAll(ls.dataDir); err == nil {
		err = rmErr
	}
	return open, burst, err
}
