package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample percentile should be 0")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{99, 90, 9, false}, // rank ceil(89.1) = 90, nine samples above it
		{100, 90, 10, true},
		{110, 90, 11, true},
		{5, 90, 0, false}, // a handful of samples: the p90 is the max
		{999, 99, 9, false},
		{1000, 99, 10, true},
		{0, 90, 0, false},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := tailResolved(c.n, c.p); got != c.ok {
			t.Errorf("tailResolved(%d, p%v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestFailFracCountsEveryBadOutcome(t *testing.T) {
	o := outcomes{attempted: 40, failed: 1, refused: 2, wrong: 1}
	if o.bad() != 4 {
		t.Fatalf("bad = %d, want 4", o.bad())
	}
	if got := o.failFrac(); got != 0.1 {
		t.Errorf("failFrac = %v, want 0.1", got)
	}
	if (outcomes{}).failFrac() != 0 {
		t.Error("failFrac with nothing attempted should be 0")
	}
	if (outcomes{attempted: 7}).failFrac() != 0 {
		t.Error("clean run should have failFrac 0")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping children counted once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested children counted once", []interval{{10, 60}, {20, 30}}, 50},
		{"child sticking out is clipped", []interval{{-20, 10}, {90, 150}}, 80},
		{"child outside the parent", []interval{{200, 300}}, 100},
		{"full cover", []interval{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAllocMBPerOp(t *testing.T) {
	if got := allocMBPerOp(10<<20, 5); got != 2 {
		t.Errorf("allocMBPerOp = %v, want 2", got)
	}
	if got := allocMBPerOp(3<<19, 1); got != 1.5 {
		t.Errorf("allocMBPerOp = %v, want 1.5", got)
	}
	if allocMBPerOp(1<<20, 0) != 0 {
		t.Error("no ops should give 0")
	}
}

func TestRemainderFloorsAtZero(t *testing.T) {
	if got := remainder(10, 2, 3); got != 5 {
		t.Errorf("remainder = %v, want 5", got)
	}
	if got := remainder(10); got != 10 {
		t.Errorf("remainder without children = %v, want 10", got)
	}
	if got := remainder(4, 3, 2); got != 0 {
		t.Errorf("remainder = %v, want 0", got)
	}
}
