package search

import (
	"psk/internal/core"
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// Samarati implements the paper's Algorithm 3: a binary search on the
// height of the generalization lattice for a p-k-minimal generalization,
// with the two necessary conditions used as early rejection filters.
//
// Faithfulness notes:
//
//   - Condition 1 (p <= maxP) is checked once on the initial microdata,
//     before any node is evaluated, exactly as Algorithm 3 does. Both
//     bounds come from the lattice bottom's group statistics, which the
//     search scans up front anyway (searchBounds): Theorems 1 and 2 need
//     only the initial microdata's confidential frequencies, and those
//     statistics carry them, so the bounds cost no second row pass.
//   - Condition 2 is applied per node. Algorithm 3 as printed filters on
//     the group count of the generalized-only table; because suppression
//     can only reduce the group count, that filter can reject a node
//     whose final masked microdata actually satisfies the condition.
//     This implementation therefore applies the bound to the
//     post-suppression table (via core.CheckWithBounds), which is the
//     exact form of Condition 2; the bound value itself is still the one
//     computed once on the initial microdata, as licensed by Theorems 1
//     and 2.
//   - The binary search assumes the satisfying heights form an
//     upward-closed set, which holds for k-anonymity with suppression
//     and for p-sensitivity under pure generalization (the paper's
//     premise). Use Exhaustive when that assumption must not be trusted.
//
// The returned node is the first satisfying node found at the minimal
// satisfying height; Exhaustive enumerates all p-k-minimal nodes when
// every solution is wanted. With cfg.Workers > 1 the nodes of each
// probed height are evaluated concurrently; the result is identical to
// the serial search. Probes decide nodes from their verdicts alone: the
// masked table is built once, for the returned node only, after the
// binary search and the frontier pass.
func Samarati(im *table.Table, cfg Config) (Result, error) {
	cfg.strategy = "samarati"
	m, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	var res Result
	span := cfg.Recorder.StartSpan(obs.PhaseSearch, nil)
	defer span.End()

	bounds, base, err := searchBounds(im, cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.Policy == nil && cfg.UseConditions && cfg.P >= 2 && !bounds.Feasible() {
		// First necessary condition: no masked microdata derived from im
		// can be p-sensitive. Checked before touching the lattice.
		res.Stats.PrunedCondition1 = 1
		span.End()
		res.Report = cfg.Recorder.Snapshot()
		return res, nil
	}

	eval := newEvaluator(im, m, nil, cfg, bounds)
	eval.seedBase(base)
	lat := m.Lattice()
	cfg.Recorder.AddLatticeNodes(int64(lat.Size()))
	low, high := 0, lat.Height()
	var found *MinimalNode
	for low < high {
		try := (low + high) / 2
		r, err := eval.firstAtHeight(lat, try, &res.Stats)
		if err != nil {
			return Result{}, err
		}
		if r != nil {
			// A hit is a genuinely satisfying node even when the probe was
			// budget-truncated, so record it before checking the limiter.
			found = r
			high = try
		}
		if eval.lim.tripped() {
			// The probe stopped early: a "no hit" verdict is unreliable, so
			// neither bound may move on it. Return the best-so-far instead
			// of descending on bad information.
			break
		}
		if r == nil {
			low = try + 1
		}
	}
	// low == high: the candidate minimal height. If the last successful
	// probe was exactly at this height we already have the answer;
	// otherwise probe it (covers both the "never probed" and the
	// "nothing satisfies anywhere" cases).
	if !eval.lim.tripped() && (found == nil || found.Node.Height() != low) {
		r, err := eval.firstAtHeight(lat, low, &res.Stats)
		if err != nil {
			return Result{}, err
		}
		if r != nil {
			found = r
		}
	}
	if err := attachFrontier(eval, lat, true, &res.Stats, &res.Frontier, &span); err != nil {
		return Result{}, err
	}
	if found != nil {
		// Only the final node is reported, so only its table is built;
		// the hits of earlier probes never were.
		built, err := eval.materializeReported([]MinimalNode{*found})
		if err != nil {
			return Result{}, err
		}
		res.Found, res.Node, res.Masked, res.Suppressed = true, built[0].Node, built[0].Masked, built[0].Suppressed
	}
	res.StopReason = eval.lim.stopReason()
	span.End()
	res.Report = cfg.Recorder.Snapshot()
	return res, nil
}

// searchBounds computes the necessary-condition bounds on the initial
// microdata when the built-in property is searched with conditions
// enabled and p >= 2; otherwise it returns permissive bounds that never
// reject. A custom Policy brings its own bounds (core.WithBounds), so
// none are computed on its behalf here.
//
// With the roll-up store on, it also returns the lattice bottom's group
// statistics, scanned here up front: they are the search's one row
// scan (the caller seeds the store with them, evaluator.seedBase), and
// by Theorems 1–2 the bounds need only the initial microdata's
// confidential frequencies, which those statistics carry — so the
// bounds derive from them (core.BoundsFromStats) instead of a second
// pass over the rows. The cache and roll-up ablations keep the
// row-scanning core.ComputeBounds and return nil statistics.
func searchBounds(im *table.Table, cfg Config) (core.Bounds, *table.GroupStats, error) {
	var base *table.GroupStats
	if !cfg.DisableCache && !cfg.DisableRollup {
		gbStart := cfg.Recorder.Start()
		var err error
		base, err = im.GroupStats(cfg.QIs, cfg.effectiveConf(), max(cfg.Workers, 1))
		cfg.Recorder.PhaseEnd(obs.PhaseGroupBy, gbStart)
		if err != nil {
			return core.Bounds{}, nil, err
		}
	}
	if cfg.Policy != nil || !cfg.UseConditions || cfg.P < 2 {
		return core.Bounds{MaxP: cfg.P, MaxGroups: im.NumRows(), P: cfg.P}, base, nil
	}
	if base == nil {
		bounds, err := core.ComputeBounds(im, cfg.Confidential, cfg.P)
		return bounds, nil, err
	}
	bounds, err := core.BoundsFromStats(base, cfg.P)
	return bounds, base, err
}

// firstAtHeight probes every node at one height (lexicographic order)
// through the evaluation engine and returns the first satisfying node
// in node order, or nil. Its masked table is left unbuilt (nil) on the
// statistics path: Samarati materializes only the node it reports.
// Workers > 1 evaluates the height's nodes concurrently with
// deterministic reduction.
func (e *evaluator) firstAtHeight(lat *lattice.Lattice, h int, stats *Stats) (*MinimalNode, error) {
	nodes := lat.NodesAtHeight(h)
	i, o, err := e.firstHit(nodes, stats)
	if err != nil {
		return nil, err
	}
	if i < 0 {
		return nil, nil
	}
	return &MinimalNode{Node: nodes[i], Masked: o.masked, Suppressed: o.suppressed}, nil
}
