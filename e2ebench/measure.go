package main

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the two closest ranks (rank p/100·(n−1)). It
// returns 0 for an empty slice and does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean (0 for an empty slice).
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	user, sys  time.Duration
	allocBytes uint64
	gcCPU      float64 // seconds of CPU the runtime attributes to GC
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// readUsage samples rusage (user and system CPU of the whole process) and
// the Go runtime's allocation and GC CPU counters.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(runtimeSamples)
	return usage{
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		allocBytes: runtimeSamples[0].Value.Uint64(),
		gcCPU:      runtimeSamples[1].Value.Float64(),
	}
}

// add accumulates the counters consumed between from and to.
func (u *usage) add(from, to usage) {
	u.user += to.user - from.user
	u.sys += to.sys - from.sys
	u.allocBytes += to.allocBytes - from.allocBytes
	u.gcCPU += to.gcCPU - from.gcCPU
}

// cpu is user plus system CPU time.
func (u usage) cpu() time.Duration { return u.user + u.sys }

// rssMB reads the process's current resident set size in MiB from
// /proc/self/statm (0 where that file does not exist).
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler samples the resident set size at most every rssEvery while
// a run measures.
type rssSampler struct {
	start time.Time
	last  time.Time
	at    []float64 // s since start
	mb    []float64
}

const rssEvery = 20 * time.Millisecond

func newRSSSampler(start time.Time) *rssSampler { return &rssSampler{start: start} }

// sample takes a reading when the last one is older than rssEvery.
func (r *rssSampler) sample() {
	now := time.Now()
	if now.Sub(r.last) < rssEvery {
		return
	}
	r.last = now
	r.at = append(r.at, now.Sub(r.start).Seconds())
	r.mb = append(r.mb, rssMB())
}

// peakMB is the steady-state peak resident set: the median over the
// run's windows of the largest reading in each.
func (r *rssSampler) peakMB(span float64) float64 {
	return windowMedian(r.at, span, func(lo, hi int) float64 { return slices.Max(r.mb[lo:hi]) })
}

// dirStats walks root and returns the number of regular files and their
// total size in bytes.
func dirStats(root string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes, err
}

// splitmix64 is a fixed bijective mixer used to derive per-experiment
// seeds from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns the seed of experiment i of a workload seed.
func deriveSeed(seed uint64, i int) uint64 { return splitmix64(seed ^ splitmix64(uint64(i))) }
