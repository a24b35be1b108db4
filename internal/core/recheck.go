package core

import (
	"fmt"

	"psk/internal/table"
)

// This file is the incremental half of the verdict layer. Every
// built-in policy except t-closeness is group-local: its verdict over a
// table is the conjunction of a per-group predicate, so when only a few
// groups changed since a satisfied verdict, re-verdicting those groups
// re-verdicts the table. GroupLocal encodes that property per policy,
// CheckGroups is the subset scan, and RecheckGroups is the dispatch the
// streaming session calls — fast path when the policy admits it, full
// Evaluate when it does not (DESIGN.md §14).
//
// The fast path is only sound under the caller's premise that every
// group outside the subset satisfied this same policy before the delta
// and was not touched by it. The subset scan reuses Evaluate itself
// (over a view holding just the selected groups), so the per-group
// loops cannot drift from the full-scan ones; because the subset is
// presented in ascending group order and — under the premise — every
// violating group is in it, the Result is identical to a full
// Evaluate's, first-violating group and all.

// GroupLocal is implemented by policies that know whether their verdict
// decomposes into independent per-group predicates, and if so, how to
// re-verdict a subset of groups.
type GroupLocal interface {
	Policy
	// LocalCheck reports whether CheckGroups on a subset is equivalent
	// to Evaluate when every group outside the subset is known to
	// satisfy the policy. t-closeness answers false: its verdict
	// compares each group to the table-wide distribution, which any
	// change anywhere shifts.
	LocalCheck() bool
	// CheckGroups re-verdicts the groups named by ascending indices
	// into v.Stats.Groups. Policies whose LocalCheck is false ignore
	// the subset and evaluate the full view. Group and Groups in the
	// Result are always in the full view's terms.
	CheckGroups(v StatsView, groups []int) (Result, error)
}

// RecheckGroups re-verdicts statistics of which only the given groups
// changed since a satisfied verdict of p. It returns the verdict, and
// whether the O(changed-groups) fast path was taken (false means the
// policy — or some part of a composite — required a full scan).
func RecheckGroups(p Policy, v StatsView, groups []int) (Result, bool, error) {
	if gl, ok := p.(GroupLocal); ok && gl.LocalCheck() {
		res, err := gl.CheckGroups(v, groups)
		return res, true, err
	}
	res, err := p.Evaluate(v)
	return res, false, err
}

// checkGroupsOrEvaluate is the per-member dispatch compositions use:
// local members scan the subset, everything else evaluates fully.
func checkGroupsOrEvaluate(p Policy, v StatsView, groups []int) (Result, error) {
	if gl, ok := p.(GroupLocal); ok && gl.LocalCheck() {
		return gl.CheckGroups(v, groups)
	}
	return p.Evaluate(v)
}

// localCheck runs a group-local policy's own Evaluate over a view
// restricted to the selected groups, then restores full-view indexing
// on the Result. Reusing Evaluate keeps the subset path pinned to the
// full-scan loops — including multi-gate orders like "k-anonymity
// first, then distinctness" — by construction.
func localCheck(p Policy, v StatsView, groups []int) (Result, error) {
	sub := table.GroupStats{
		NumRows: v.Stats.NumRows,
		NumQI:   v.Stats.NumQI,
		NumConf: v.Stats.NumConf,
		Groups:  make([]table.GroupStat, len(groups)),
	}
	for i, g := range groups {
		if g < 0 || g >= len(v.Stats.Groups) {
			return Result{}, fmt.Errorf("core: recheck: group index %d outside 0..%d", g, len(v.Stats.Groups)-1)
		}
		sub.Groups[i] = v.Stats.Groups[g]
	}
	res, err := p.Evaluate(StatsView{Stats: &sub, Conf: v.Conf})
	if err != nil {
		return Result{}, err
	}
	res.Groups = v.Stats.NumGroups()
	if res.Group >= 0 {
		res.Group = groups[res.Group]
	}
	return res, nil
}

func (p KAnonymityPolicy) LocalCheck() bool { return true }
func (p KAnonymityPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	return localCheck(p, v, groups)
}

func (p PSensitivityPolicy) LocalCheck() bool { return true }
func (p PSensitivityPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	return localCheck(p, v, groups)
}

func (p PSensitiveKAnonymityPolicy) LocalCheck() bool { return true }
func (p PSensitiveKAnonymityPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	return localCheck(p, v, groups)
}

func (p DistinctLDiversityPolicy) LocalCheck() bool { return true }
func (p DistinctLDiversityPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	return localCheck(p, v, groups)
}

func (p EntropyLDiversityPolicy) LocalCheck() bool { return true }
func (p EntropyLDiversityPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	return localCheck(p, v, groups)
}

func (p RecursiveLDiversityPolicy) LocalCheck() bool { return true }
func (p RecursiveLDiversityPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	return localCheck(p, v, groups)
}

// t-closeness measures every group against the table-wide distribution,
// so a change to any group moves the yardstick for all of them: the
// verdict is not group-local and CheckGroups falls back to a full scan.
func (p TClosenessPolicy) LocalCheck() bool { return false }
func (p TClosenessPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	return p.Evaluate(v)
}

func (p PAlphaPolicy) LocalCheck() bool { return true }
func (p PAlphaPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	return localCheck(p, v, groups)
}

func (p ExtendedPolicy) LocalCheck() bool { return true }
func (p ExtendedPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	return localCheck(p, v, groups)
}

// A conjunction rechecks member by member — local members scan the
// subset, non-local ones evaluate fully — preserving first-failure-wins
// order. It reports itself local so the composite takes the fast path
// whenever any member can; per-member fallbacks still happen inside.
func (c conjunction) LocalCheck() bool { return true }
func (c conjunction) CheckGroups(v StatsView, groups []int) (Result, error) {
	for _, p := range c {
		res, err := checkGroupsOrEvaluate(p, v, groups)
		if err != nil {
			return Result{}, err
		}
		if !res.Satisfied {
			return res, nil
		}
	}
	return satisfied(v), nil
}

// boundedPolicy re-applies the Theorem 1–2 rejection filters — they are
// O(1) and O(groups) respectively, and Condition 2 depends on the total
// group count, which deltas move — then dispatches the inner policy.
func (p boundedPolicy) LocalCheck() bool {
	if gl, ok := p.inner.(GroupLocal); ok {
		return gl.LocalCheck()
	}
	return false
}

func (p boundedPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	res := Result{MaxP: p.bounds.MaxP, MaxGroups: p.bounds.MaxGroups, Group: -1, Attr: -1}
	if p.bounds.P > p.bounds.MaxP {
		res.Reason = FailedCondition1
		return res, nil
	}
	res.Groups = v.Stats.NumGroups()
	if p.bounds.P >= 2 && res.Groups > p.bounds.MaxGroups {
		res.Reason = FailedCondition2
		return res, nil
	}
	out, err := checkGroupsOrEvaluate(p.inner, v, groups)
	if err != nil {
		return Result{}, err
	}
	out.MaxP, out.MaxGroups = p.bounds.MaxP, p.bounds.MaxGroups
	return out, nil
}

// observedPolicy forwards locality and times subset rechecks under the
// same per-policy key as full evaluations.
func (p observedPolicy) LocalCheck() bool {
	if gl, ok := p.inner.(GroupLocal); ok {
		return gl.LocalCheck()
	}
	return false
}

func (p observedPolicy) CheckGroups(v StatsView, groups []int) (Result, error) {
	start := p.rec.Start()
	res, err := checkGroupsOrEvaluate(p.inner, v, groups)
	p.rec.PolicyEval(p.name, start, err == nil && res.Satisfied)
	return res, err
}

// BoundsFromStats computes the Theorem 1–2 bounds from group statistics
// instead of a table: the confidential histograms carry exactly the
// per-value counts MaxP and MaxGroups need, so a search derives its
// bounds from the base statistics it scans anyway, and a streaming
// session refreshes them from maintained statistics, without another
// pass over the rows. The result matches ComputeBounds on the table
// the statistics describe (zero-size tombstone groups carry empty
// histograms and so contribute nothing).
func BoundsFromStats(s *table.GroupStats, p int) (Bounds, error) {
	if s == nil || s.NumConf == 0 {
		return Bounds{}, fmt.Errorf("core: no confidential attributes")
	}
	freqs := make([][]int, s.NumConf)
	for a := range freqs {
		counts := make(map[int]int)
		for i := range s.Groups {
			for _, e := range s.Groups[i].Hists[a] {
				counts[e.Code] += e.Count
			}
		}
		f := make([]int, 0, len(counts))
		for _, c := range counts {
			f = append(f, c)
		}
		freqs[a] = descending(f)
	}
	return boundsOf(freqs, s.NumRows, p)
}
