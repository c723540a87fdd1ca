package main

import (
	"strings"
	"testing"
)

// TestCheckRegression: the ns/op gate covers only warm plan_elastic rows,
// the allocs/op gate covers every row at +10%, and rows missing from the
// baseline are skipped.
func TestCheckRegression(t *testing.T) {
	row := func(name string, ns float64, allocs int64) Result {
		return Result{Name: name, Samples: 20, Estimator: "segment", NsPerOp: ns, AllocsPerOp: allocs}
	}
	base := []Result{row("plan_elastic", 1000, 100), row("estimate", 1000, 100)}
	cases := []struct {
		name string
		cur  []Result
		want []string
	}{
		{"within both gates", []Result{row("plan_elastic", 1250, 110), row("estimate", 1000, 110)}, nil},
		{"plan_elastic slower", []Result{row("plan_elastic", 1300, 100)}, []string{"ns/op"}},
		{"other rows ungated on time", []Result{row("estimate", 5000, 100)}, nil},
		{"allocs grow on any row", []Result{row("estimate", 1000, 111)}, []string{"allocs/op"}},
		{"both gates", []Result{row("plan_elastic", 1300, 111)}, []string{"ns/op", "allocs/op"}},
		{"new row", []Result{row("replan", 1e9, 1e6)}, nil},
	}
	for _, c := range cases {
		bad := checkRegression(base, c.cur, 0.25)
		if len(bad) != len(c.want) {
			t.Fatalf("%s: got %q, want %d report(s)", c.name, bad, len(c.want))
		}
		for i, w := range c.want {
			if !strings.Contains(bad[i], w) {
				t.Errorf("%s: report %q does not mention %s", c.name, bad[i], w)
			}
		}
	}
}
