package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
)

// TestStatusLatencyP99 is the heavy service-level objective test, gated
// behind RB_HEAVY_TESTS=1: with a fleet of concurrent experiments
// churning through the arbiter, the status endpoint's p99 latency must
// stay interactive. Status reads take one experiment mutex and encode a
// small JSON body — they must never queue behind the simulation drivers.
// This test lives in cmd (not internal/serve) because it measures wall
// time, which the deterministic core forbids.
func TestStatusLatencyP99(t *testing.T) {
	if os.Getenv("RB_HEAVY_TESTS") == "" {
		t.Skip("set RB_HEAVY_TESTS=1 to run the latency SLO test")
	}
	const (
		tenants    = 4
		perTenant  = 16 // 64 experiments total
		probes     = 8  // concurrent latency probes
		perProbe   = 250
		p99Budget  = 250 * time.Millisecond
		meanBudget = 25 * time.Millisecond
	)
	s, err := serve.NewServer(serve.Config{
		Capacity: 64,
		Quota:    serve.Quota{MaxQueued: 64, MaxLive: perTenant, MaxGPUs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	// Launch the fleet: 64 experiments submitted concurrently, all live
	// against one shared cluster while the probes run.
	var ids []string
	var idMu sync.Mutex
	var subWG sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		subWG.Add(1)
		go func(ti int) {
			defer subWG.Done()
			for j := 0; j < perTenant; j++ {
				sub := serve.Submission{
					Tenant: fmt.Sprintf("tenant-%d", ti), Model: "resnet50",
					Stages: [][2]int{{8, 2}, {4, 2}, {2, 2}},
					Seed:   uint64(1000*ti + j), MaxGPUs: 4, DeadlineFactor: 2,
				}
				body, _ := json.Marshal(sub)
				resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var st serve.Status
				err = json.NewDecoder(resp.Body).Decode(&st)
				if cerr := resp.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit: %d (%v)", resp.StatusCode, err)
					return
				}
				idMu.Lock()
				ids = append(ids, st.ID)
				idMu.Unlock()
			}
		}(ti)
	}
	subWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Hammer the status and stats endpoints while the fleet churns.
	latCh := make(chan []float64, probes)
	var probeWG sync.WaitGroup
	for p := 0; p < probes; p++ {
		probeWG.Add(1)
		go func(p int) {
			defer probeWG.Done()
			lat := make([]float64, 0, perProbe)
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; i < perProbe; i++ {
				path := ts.URL + "/v1/experiments/" + ids[(p*perProbe+i)%len(ids)]
				if i%10 == 0 {
					path = ts.URL + "/v1/stats"
				}
				start := time.Now()
				resp, err := client.Get(path)
				if err != nil {
					t.Error(err)
					return
				}
				if err := resp.Body.Close(); err != nil {
					t.Error(err)
					return
				}
				lat = append(lat, time.Since(start).Seconds())
				if resp.StatusCode != http.StatusOK {
					t.Errorf("probe GET %s: %d", path, resp.StatusCode)
					return
				}
			}
			latCh <- lat
		}(p)
	}
	probeWG.Wait()
	close(latCh)
	if t.Failed() {
		t.FailNow()
	}

	var all []float64
	for lat := range latCh {
		all = append(all, lat...)
	}
	if len(all) != probes*perProbe {
		t.Fatalf("collected %d latencies, want %d", len(all), probes*perProbe)
	}
	sort.Float64s(all)
	p50 := time.Duration(stats.Percentile(all, 0.50) * float64(time.Second))
	p99 := time.Duration(stats.Percentile(all, 0.99) * float64(time.Second))
	meanSec, _ := stats.MeanStd(all)
	mean := time.Duration(meanSec * float64(time.Second))
	t.Logf("status latency over %d requests under %d live experiments: p50=%v mean=%v p99=%v",
		len(all), len(ids), p50, mean, p99)
	if p99 > p99Budget {
		t.Fatalf("status p99 latency %v exceeds %v", p99, p99Budget)
	}
	if mean > meanBudget {
		t.Fatalf("status mean latency %v exceeds %v", mean, meanBudget)
	}

	// The fleet still drains cleanly after the probe storm.
	s.Drain()
	done := 0
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/experiments/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			done++
		}
	}
	if done != len(ids) {
		t.Fatalf("%d/%d experiments done after drain", done, len(ids))
	}
}

// TestServerTimeouts: the server rbserve listens with bounds both how long
// a client may take to send its request headers and how long an idle
// keep-alive connection may linger, so a slow or silent client cannot
// hold a connection forever.
func TestServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
}
