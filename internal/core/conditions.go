package core

import (
	"fmt"
	"math"

	"psk/internal/table"
)

// MaxP computes the first necessary condition's bound (Condition 1): the
// minimum over confidential attributes of the number of distinct values.
// No masked microdata derived from t can be p-sensitive for p > MaxP.
func MaxP(t *table.Table, confidential []string) (int, error) {
	freqs, err := frequencySets(t, confidential)
	if err != nil {
		return 0, err
	}
	return maxPOf(freqs), nil
}

// MaxGroups computes the second necessary condition's bound (Condition
// 2): the maximum number of distinct QI-value combinations a masked
// microdata derived from t may contain while still admitting p distinct
// confidential values in every group:
//
//	maxGroups = min_{i=1..p-1} floor((n - cf_{p-i}) / i)
//
// For p == 1 the condition is vacuous and MaxGroups returns n (every
// tuple may be its own group). It is the caller's responsibility to
// first establish p <= MaxP; indices past the defined cf range are
// rejected.
func MaxGroups(t *table.Table, confidential []string, p int) (int, error) {
	if p < 1 {
		return 0, fmt.Errorf("core: p must be >= 1, got %d", p)
	}
	if p == 1 {
		return t.NumRows(), nil
	}
	freqs, err := frequencySets(t, confidential)
	if err != nil {
		return 0, err
	}
	return maxGroupsOf(cfMaxOf(freqs), t.NumRows(), p)
}

// maxPOf is Condition 1's bound over the confidential attributes'
// frequency sets: the smallest number of distinct values.
func maxPOf(freqs [][]int) int {
	maxP := -1
	for _, f := range freqs {
		if maxP == -1 || len(f) < maxP {
			maxP = len(f)
		}
	}
	return maxP
}

// maxGroupsOf is Condition 2's arithmetic over cf (cfMaxOf) for n
// tuples — the one formula every bounds path shares.
func maxGroupsOf(cf []int, n, p int) (int, error) {
	if p == 1 {
		return n, nil
	}
	if p-1 > len(cf) {
		return 0, fmt.Errorf("core: p = %d exceeds the defined cumulative frequency range (maxP = %d)", p, len(cf))
	}
	best := math.MaxInt
	for i := 1; i <= p-1; i++ {
		// cf is 0-indexed; the paper's cf_{p-i} is cf[p-i-1].
		v := (n - cf[p-i-1]) / i
		if v < best {
			best = v
		}
	}
	if best < 0 {
		best = 0
	}
	return best, nil
}

// boundsOf evaluates both necessary conditions from the confidential
// attributes' frequency sets over n tuples. ComputeBounds takes the
// frequencies from the table's rows, BoundsFromStats from group
// statistics; both then share this arithmetic.
func boundsOf(freqs [][]int, n, p int) (Bounds, error) {
	if p < 1 {
		return Bounds{}, fmt.Errorf("core: p must be >= 1, got %d", p)
	}
	b := Bounds{MaxP: maxPOf(freqs), P: p}
	if p > b.MaxP {
		return b, nil
	}
	var err error
	if b.MaxGroups, err = maxGroupsOf(cfMaxOf(freqs), n, p); err != nil {
		return Bounds{}, err
	}
	return b, nil
}

// Bounds packages the two necessary-condition values. Theorems 1 and 2
// prove that bounds computed on the initial microdata remain upper
// bounds for every masked microdata derived from it by full-domain
// generalization followed by suppression, so a search algorithm computes
// them once and reuses them at every lattice node.
type Bounds struct {
	// MaxP is Condition 1's bound: the largest feasible p.
	MaxP int
	// MaxGroups is Condition 2's bound for the p the bounds were
	// computed with: the largest admissible number of QI-groups.
	MaxGroups int
	// P is the sensitivity level MaxGroups was computed for.
	P int
}

// ComputeBounds evaluates both necessary conditions on the (initial)
// microdata for a target p. If p exceeds MaxP, the returned bounds have
// Feasible() == false and MaxGroups is 0.
func ComputeBounds(t *table.Table, confidential []string, p int) (Bounds, error) {
	freqs, err := frequencySets(t, confidential)
	if err != nil {
		return Bounds{}, err
	}
	return boundsOf(freqs, t.NumRows(), p)
}

// Feasible reports whether Condition 1 admits the target p at all.
func (b Bounds) Feasible() bool { return b.P <= b.MaxP }
