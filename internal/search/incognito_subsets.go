package search

import (
	"fmt"
	"sort"

	"psk/internal/core"
	"psk/internal/generalize"
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// IncognitoResult is the outcome of the subset-pruned search.
type IncognitoResult struct {
	// Minimal are the p-k-minimal nodes of the full QI lattice.
	Minimal []MinimalNode
	// Stats describes the work performed.
	Stats Stats
	// PrunedBySubsets counts full-lattice candidate nodes rejected
	// because a projection onto a smaller QI subset already failed.
	PrunedBySubsets int
	// SubsetsEvaluated is the number of QI subsets processed.
	SubsetsEvaluated int
	// Report is the telemetry snapshot taken when the search finished;
	// nil unless Config.Recorder was set.
	Report *obs.Report
	// StopReason records why the search ended; anything but StopDone
	// marks a valid best-so-far partial result (nodes in Minimal were
	// genuinely evaluated and satisfied; subsets or levels the budget
	// skipped may hide further solutions).
	StopReason StopReason
	// Frontier is the dominance-reduced set of satisfying full-lattice
	// nodes with their stats-native loss scores, in lattice walk order;
	// nil unless Config.Frontier.Enabled.
	Frontier []FrontierEntry
}

// Incognito implements the subset-lattice search of LeFevre, DeWitt and
// Ramakrishnan ("Incognito", SIGMOD 2005 — the paper's reference [12]),
// extended to p-sensitive k-anonymity. The key observation is the
// subset property: if a masked microdata satisfies the property with
// respect to a QI set S, it satisfies it with respect to every subset
// of S (subset groupings are coarser, so groups only grow, and growing
// a group can lose neither members nor distinct confidential values).
// Contrapositively, a node of the full lattice whose projection onto
// any smaller subset failed cannot succeed, and is pruned without
// materializing its masking.
//
// Subsets are processed in increasing size; within each subset's
// lattice, nodes are visited bottom-up and upward tagging skips the
// up-set of every satisfying node (as in AllMinimal). The final pass
// over the full QI set yields the complete p-k-minimal antichain.
func Incognito(im *table.Table, cfg Config) (IncognitoResult, error) {
	cfg.strategy = "incognito"
	m, err := cfg.validate()
	if err != nil {
		return IncognitoResult{}, err
	}
	var res IncognitoResult
	span := cfg.Recorder.StartSpan(obs.PhaseSearch, nil)
	defer span.End()

	bounds, baseStats, err := searchBounds(im, cfg)
	if err != nil {
		return IncognitoResult{}, err
	}
	if cfg.Policy == nil && cfg.UseConditions && cfg.P >= 2 && !bounds.Feasible() {
		res.Stats.PrunedCondition1 = 1
		span.End()
		res.Report = cfg.Recorder.Snapshot()
		return res, nil
	}

	qis := cfg.QIs
	mAttrs := len(qis)
	if mAttrs > 16 {
		return IncognitoResult{}, fmt.Errorf("search: incognito supports at most 16 quasi-identifiers, got %d", mAttrs)
	}
	fullDims := m.Lattice().Dims()

	// One limiter spans every subset pass: the whole strategy call
	// draws on a single budget, and a trip in any subset stops the rest.
	lim := cfg.newLimiter()

	// satisfied[mask] is the set of satisfying node keys for the QI
	// subset encoded by mask (bit i = qis[i] present). Node keys are
	// over the subset's own coordinates, in ascending attribute order.
	satisfied := make(map[uint32]map[string]bool)

	// One generalized-column cache serves every subset's evaluator: it is
	// keyed by attribute name and hierarchy level, both of which are
	// independent of which QI subset a node ranges over, so the level-l
	// generalization of an attribute computed for one subset is reused by
	// every later subset that includes the attribute.
	var sharedCache *generalize.Cache
	if !cfg.DisableCache {
		sharedCache = m.NewCache(im)
	}

	// Enumerate masks grouped by popcount.
	masks := make([][]uint32, mAttrs+1)
	for mask := uint32(1); mask < 1<<mAttrs; mask++ {
		pc := popcount(mask)
		masks[pc] = append(masks[pc], mask)
	}

	// With the roll-up store on, frequency sets roll up across QI
	// subsets too — the classic Incognito formulation: the base-level
	// statistics over the full QI set (searchBounds scanned them) are
	// the only row scan, and every subset lattice's bottom is a
	// projection of them, so no subset search ever re-scans rows.
	// Projections chain by descending subset size — each mask projects
	// from a one-attribute-larger superset with the fewest groups — so
	// most merge a few hundred groups instead of the full base-level
	// group set.
	var projStats map[uint32]*table.GroupStats
	if baseStats != nil {
		fullMask := uint32(1<<mAttrs) - 1
		projStats = make(map[uint32]*table.GroupStats, fullMask)
		projStats[fullMask] = baseStats
		for size := mAttrs - 1; size >= 1; size-- {
			for _, mask := range masks[size] {
				var parent *table.GroupStats
				var parentMask uint32
				for i := 0; i < mAttrs; i++ {
					if mask&(1<<uint(i)) != 0 {
						continue
					}
					if ps := projStats[mask|1<<uint(i)]; parent == nil || ps.NumGroups() < parent.NumGroups() {
						parent, parentMask = ps, mask|1<<uint(i)
					}
				}
				// keep holds the positions of mask's attributes among the
				// parent's key columns (the parent mask's set bits,
				// ascending).
				keep := make([]int, 0, size)
				col := 0
				for i := 0; i < mAttrs; i++ {
					if parentMask&(1<<uint(i)) == 0 {
						continue
					}
					if mask&(1<<uint(i)) != 0 {
						keep = append(keep, col)
					}
					col++
				}
				projStart := cfg.Recorder.Start()
				proj, err := parent.Project(keep)
				cfg.Recorder.PhaseEnd(obs.PhaseRollup, projStart)
				if err != nil {
					return IncognitoResult{}, err
				}
				projStats[mask] = proj
			}
		}
	}

	// fullEval is the evaluator of the final full-QI pass, captured so
	// the frontier scan can reuse its memoized roll-up statistics.
	var fullEval *evaluator

subsets:
	for size := 1; size <= mAttrs; size++ {
		for _, mask := range masks[size] {
			if lim.tripped() {
				break subsets
			}
			attrs, dims := subsetOf(qis, fullDims, mask)
			subLat, err := lattice.New(dims)
			if err != nil {
				return IncognitoResult{}, err
			}
			// Progress denominator: each subset lattice adds its own node
			// count, so the /progress fraction tracks the whole multi-pass
			// strategy, not just the final full-QI lattice.
			cfg.Recorder.AddLatticeNodes(int64(subLat.Size()))
			subCfg := cfg
			subCfg.QIs = attrs
			subMasker, err := subCfg.validate()
			if err != nil {
				return IncognitoResult{}, err
			}

			subEval := newLimitedEvaluator(im, subMasker, sharedCache, subCfg, bounds, lim)
			if size == mAttrs {
				fullEval = subEval
			}
			if s := projStats[mask]; s != nil && subEval.rollups != nil {
				subEval.rollups.seed(make(lattice.Node, size), s)
			}

			sat := make(map[string]bool)
			satisfied[mask] = sat
			tagged := make(map[string]bool)
			var fullMinimal []MinimalNode

			for h := 0; h <= subLat.Height(); h++ {
				// Pre-filter the level serially: tagging only marks
				// strictly higher nodes and projection checks read only
				// smaller, already-completed subsets, so the survivors
				// are independent and can be evaluated concurrently.
				nodes := subLat.NodesAtHeight(h)
				var candidates []lattice.Node
				candIdx := make([]int, len(nodes))
				for i, node := range nodes {
					key := node.Key()
					if tagged[key] {
						sat[key] = true
						tagUp(subLat, node, tagged)
						candIdx[i] = -1
						continue
					}
					// Subset pruning: every (size-1)-projection must have
					// satisfied.
					if size > 1 && !projectionsSatisfied(mask, node, satisfied) {
						if size == mAttrs {
							res.PrunedBySubsets++
						}
						candIdx[i] = -1
						continue
					}
					candIdx[i] = len(candidates)
					candidates = append(candidates, node)
				}
				outs, err := subEval.evalAll(candidates, &res.Stats)
				if err != nil {
					return IncognitoResult{}, err
				}
				for i, node := range nodes {
					if candIdx[i] < 0 {
						continue
					}
					if o := outs[candIdx[i]]; o.ok {
						sat[node.Key()] = true
						if size == mAttrs {
							fullMinimal = append(fullMinimal, MinimalNode{
								Node: node, Masked: o.masked, Suppressed: o.suppressed,
							})
						}
						tagUp(subLat, node, tagged)
					}
				}
				if lim.tripped() {
					break
				}
			}
			res.SubsetsEvaluated++
			if size == mAttrs {
				sortMinimal(fullMinimal)
				res.Minimal = fullMinimal
			}
		}
	}
	if cfg.Frontier.Enabled {
		if fullEval == nil {
			// The budget tripped before the full-QI pass ran. Build an
			// evaluator over the full lattice anyway: it shares the tripped
			// limiter, so the scan no-ops deterministically, and a deadline
			// trip mid-strategy still yields a valid (possibly empty)
			// partial frontier.
			fullEval = newLimitedEvaluator(im, m, sharedCache, cfg, bounds, lim)
			if s := projStats[uint32(1<<mAttrs)-1]; s != nil && fullEval.rollups != nil {
				fullEval.rollups.seed(make(lattice.Node, mAttrs), s)
			}
		}
		// Incognito assumes monotonicity (the subset property), so the
		// frontier scan may cut dominated up-sets.
		if err := attachFrontier(fullEval, m.Lattice(), true, &res.Stats, &res.Frontier, &span); err != nil {
			return IncognitoResult{}, err
		}
	}
	// Only the full-QI pass reports nodes; smaller subsets exist purely
	// to prune, so their hits never get a masked table.
	if len(res.Minimal) > 0 {
		if res.Minimal, err = fullEval.materializeReported(res.Minimal); err != nil {
			return IncognitoResult{}, err
		}
	}
	res.StopReason = lim.stopReason()
	span.End()
	res.Report = cfg.Recorder.Snapshot()
	return res, nil
}

// subsetOf extracts the attributes and dims selected by mask, keeping
// attribute order.
func subsetOf(qis []string, dims []int, mask uint32) ([]string, []int) {
	var attrs []string
	var sub []int
	for i := range qis {
		if mask&(1<<uint(i)) != 0 {
			attrs = append(attrs, qis[i])
			sub = append(sub, dims[i])
		}
	}
	return attrs, sub
}

// projectionsSatisfied checks every (|S|-1)-subset projection of node.
func projectionsSatisfied(mask uint32, node lattice.Node, satisfied map[uint32]map[string]bool) bool {
	// Positions of set bits, ascending: coordinate j of node belongs to
	// attribute bits[j].
	var bits []uint
	for i := uint(0); i < 32; i++ {
		if mask&(1<<i) != 0 {
			bits = append(bits, i)
		}
	}
	for drop := range bits {
		subMask := mask &^ (1 << bits[drop])
		proj := make(lattice.Node, 0, len(bits)-1)
		for j := range bits {
			if j != drop {
				proj = append(proj, node[j])
			}
		}
		if !satisfied[subMask][proj.Key()] {
			return false
		}
	}
	return true
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// FindAnonymousIncognito mirrors FindAnonymous for the subset-pruned
// search: run Incognito and derive the failure reason.
func FindAnonymousIncognito(im *table.Table, cfg Config) (IncognitoResult, core.Reason, error) {
	res, err := Incognito(im, cfg)
	if err != nil {
		return IncognitoResult{}, core.Satisfied, err
	}
	switch {
	case len(res.Minimal) > 0:
		return res, core.Satisfied, nil
	case res.Stats.PrunedCondition1 > 0:
		return res, core.FailedCondition1, nil
	default:
		return res, core.NotPSensitive, nil
	}
}

// sortMinimal orders minimal nodes bottom-up for deterministic output.
func sortMinimal(nodes []MinimalNode) {
	sort.Slice(nodes, func(a, b int) bool {
		ha, hb := nodes[a].Node.Height(), nodes[b].Node.Height()
		if ha != hb {
			return ha < hb
		}
		return nodes[a].Node.Key() < nodes[b].Node.Key()
	})
}
