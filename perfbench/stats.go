package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// tail percentile for it to be resolved: a p90 over fewer than 100
// samples rests on fewer than ten observations and is flagged.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the samples: the smallest sample with at least p percent of the
// samples at or below it. It returns 0 for no samples. The input is not
// modified.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile's position.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailResolved reports whether the p-th percentile of n samples has at
// least minBeyond samples beyond it.
func tailResolved(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// median is the 50th percentile.
func median(samples []float64) float64 { return percentile(samples, 50) }

// outcomes tallies attempted operations by how they ended.
type outcomes struct {
	attempted int
	// failed are ops the program reported an error for, refused are
	// ops turned away (HTTP 429), wrong are ops that completed with an
	// output the correctness check rejected.
	failed, refused, wrong int
}

// bad is every op that did not complete correctly.
func (o outcomes) bad() int { return o.failed + o.refused + o.wrong }

// failFrac is (failed + refused + wrong-output ops) / attempted ops; 0
// when nothing was attempted.
func (o outcomes) failFrac() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.bad()) / float64(o.attempted)
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of its interval that
// its children cover. Children may overlap each other (concurrent
// work) or stick out of the parent; only the covered part of the
// parent's interval is subtracted, so the result is never negative.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// allocMBPerOp is the heap bytes allocated during the timed phase (a
// runtime.MemStats.TotalAlloc delta) per completed op, in MiB; 0 when
// no op completed.
func allocMBPerOp(bytes uint64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(bytes) / float64(ops) / (1 << 20)
}

// remainder is a layer's self time when its children were timed
// separately (replayed calls, not spans inside its interval): the total
// minus the children, floored at 0 because replayed children can sum
// to more than a parallel parent's wall time.
func remainder(total float64, children ...float64) float64 {
	for _, c := range children {
		total -= c
	}
	return math.Max(total, 0)
}
