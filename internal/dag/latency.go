package dag

import (
	"math"

	"repro/internal/stats"
)

// opcode tags a Latency's distribution family. The common distributions
// are inlined as opcodes with their parameters held in place, so
// sampling them is a branch-predictable switch with no interface
// dispatch; anything else falls back to the distribution itself.
type opcode uint8

const (
	opDet       opcode = iota // point mass: p0
	opNormal                  // max(0, N(p0, p1))
	opLogNormal               // exp(N(p0, p1))
	opUniform                 // uniform [p0, p1)
	opExp                     // exponential with mean p0
	opPareto                  // pareto(scale=p0, alpha=p1)
	opRepeat                  // sum of cnt draws from d
	opDist                    // opaque: d.Sample
)

// Latency is one latency distribution encoded for repeated evaluation.
// It is the single latency encoding of the package: a compiled
// Program holds one per node, and callers that know their DAG's shape
// in closed form (the simulator's stage segments) hold them directly.
// Both sample through Latency.Sample and take moments through
// Latency.Moment, so the two agree bit for bit by construction. The
// zero value is the point mass at zero.
type Latency struct {
	op opcode
	// cnt is the draw count of an opRepeat latency.
	cnt    int32
	p0, p1 float64
	// d is the summed distribution of an opRepeat latency and the
	// distribution itself of an opDist one (nil otherwise).
	d stats.Dist
}

// NewLatency encodes a distribution; nil means zero latency.
func NewLatency(d stats.Dist) Latency {
	switch v := d.(type) {
	case nil:
		return Latency{}
	case stats.Deterministic:
		return Latency{op: opDet, p0: v.Value}
	case stats.Normal:
		return Latency{op: opNormal, p0: v.Mu, p1: v.Sigma}
	case stats.LogNormal:
		return Latency{op: opLogNormal, p0: v.Mu, p1: v.Sigma}
	case stats.Uniform:
		return Latency{op: opUniform, p0: v.Lo, p1: v.Hi}
	case stats.Exponential:
		return Latency{op: opExp, p0: v.MeanValue}
	case stats.Pareto:
		return Latency{op: opPareto, p0: v.Scale, p1: v.Alpha}
	case stats.Repeat:
		return Latency{op: opRepeat, cnt: int32(v.N), d: v.D}
	default:
		return Latency{op: opDist, d: d}
	}
}

// Sample draws one latency. It consumes RNG draws exactly as the encoded
// distribution's own Sample does and reproduces its arithmetic, so the
// result is bit-identical to sampling the distribution directly.
//
//rbvet:pure
//rbvet:noalloc
func (l *Latency) Sample(r *stats.RNG) float64 {
	switch l.op {
	case opDet:
		return l.p0
	case opNormal:
		lat := l.p0 + l.p1*r.NormFloat64()
		if lat < 0 {
			lat = 0
		}
		return lat
	case opLogNormal:
		return math.Exp(l.p0 + l.p1*r.NormFloat64())
	case opUniform:
		return l.p0 + (l.p1-l.p0)*r.Float64()
	case opExp:
		u := r.Float64()
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		return -l.p0 * math.Log(1-u)
	case opPareto:
		u := r.Float64()
		if u == 0 {
			u = math.Nextafter(0, 1)
		}
		return l.p0 / math.Pow(u, 1/l.p1)
	case opRepeat:
		var lat float64
		for j := int32(0); j < l.cnt; j++ {
			lat += l.d.Sample(r)
		}
		return lat
	default:
		return l.d.Sample(r)
	}
}

// Moment returns the latency's (mean, variance), whether the latency is
// provably non-negative (the precondition for dominance pruning in the
// moment pass), and whether analytic moments exist at all (Pareto needs
// alpha > 2, opaque distributions must implement stats.Varer).
//
//rbvet:pure
//rbvet:noalloc
func (l *Latency) Moment() (m stats.Moment, nonneg, ok bool) {
	switch l.op {
	case opDet:
		return stats.Moment{Mean: l.p0}, l.p0 >= 0, true
	case opNormal:
		// Sampling truncates at zero; like stats.Normal.Mean, the moment
		// ignores the truncation bias (negligible at the sigma/mu ratios
		// the profiles use, and covered by the tolerance property tests).
		return stats.Moment{Mean: l.p0, Var: l.p1 * l.p1}, true, true
	case opLogNormal:
		s2 := l.p1 * l.p1
		mean := math.Exp(l.p0 + s2/2)
		return stats.Moment{Mean: mean, Var: (math.Exp(s2) - 1) * mean * mean}, true, true
	case opUniform:
		w := l.p1 - l.p0
		return stats.Moment{Mean: (l.p0 + l.p1) / 2, Var: w * w / 12}, l.p0 >= 0, true
	case opExp:
		return stats.Moment{Mean: l.p0, Var: l.p0 * l.p0}, l.p0 >= 0, true
	case opPareto:
		al := l.p1
		if al <= 2 {
			return stats.Moment{}, false, false
		}
		am1 := al - 1
		return stats.Moment{
			Mean: l.p0 * al / am1,
			Var:  l.p0 * l.p0 * al / (am1 * am1 * (al - 2)),
		}, true, true
	case opRepeat:
		base, ok := stats.DistMoment(l.d)
		if !ok {
			return stats.Moment{}, false, false
		}
		n := float64(l.cnt)
		return stats.Moment{Mean: base.Mean * n, Var: base.Var * n}, distNonNeg(l.d), true
	default:
		m, ok := stats.DistMoment(l.d)
		return m, distNonNeg(l.d), ok
	}
}

// distNonNeg reports whether a distribution provably never samples below
// zero. Unknown types answer false, which only disables dominance
// pruning (forcing Monte-Carlo fallback when a pruning step would have
// been required), never a wrong moment.
func distNonNeg(d stats.Dist) bool {
	switch v := d.(type) {
	case stats.Deterministic:
		return v.Value >= 0
	case stats.Normal:
		return true // Sample truncates at zero
	case stats.LogNormal:
		return true
	case stats.Uniform:
		return v.Lo >= 0
	case stats.Exponential:
		return v.MeanValue >= 0
	case stats.Pareto:
		return true
	case stats.Repeat:
		return distNonNeg(v.D)
	case stats.Scaled:
		return v.Factor >= 0 && distNonNeg(v.D)
	case stats.Shifted:
		return v.Offset >= 0 && distNonNeg(v.D)
	}
	return false
}
