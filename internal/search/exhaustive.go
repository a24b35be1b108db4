package search

import (
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// MinimalNode is one p-k-minimal generalization found by Exhaustive,
// with its masked microdata.
type MinimalNode struct {
	Node       lattice.Node
	Masked     *table.Table
	Suppressed int
}

// ExhaustiveResult reports every p-k-minimal generalization (Definition
// 3): the satisfying nodes with no satisfying node strictly below them.
type ExhaustiveResult struct {
	// Minimal are the p-k-minimal nodes in bottom-up lattice order.
	Minimal []MinimalNode
	// Satisfying is every satisfying node (minimal or not).
	Satisfying []lattice.Node
	// Stats describes the work performed.
	Stats Stats
	// Report is the telemetry snapshot taken when the search finished;
	// nil unless Config.Recorder was set.
	Report *obs.Report
	// StopReason records why the search ended; anything but StopDone
	// marks a valid best-so-far partial enumeration (every node listed
	// in Minimal/Satisfying was genuinely evaluated and satisfied, but
	// nodes the budget skipped may be missing, so minimality is only
	// relative to the evaluated set).
	StopReason StopReason
	// Frontier is the dominance-reduced set of satisfying nodes with
	// their stats-native loss scores, in lattice walk order; nil unless
	// Config.Frontier.Enabled.
	Frontier []FrontierEntry
}

// Exhaustive evaluates every node of the generalization lattice and
// returns all p-k-minimal generalizations. Unlike Samarati it makes no
// monotonicity assumption, so it is the reference implementation the
// tests compare the faster searches against; it also powers Table 4,
// whose lattice has only six nodes. Every node is independent, so with
// cfg.Workers > 1 the whole lattice is evaluated concurrently. Nodes
// are decided from their verdicts alone; only the minimal ones, the
// nodes it reports, get their masked tables built, after the walk.
func Exhaustive(im *table.Table, cfg Config) (ExhaustiveResult, error) {
	cfg.strategy = "exhaustive"
	m, err := cfg.validate()
	if err != nil {
		return ExhaustiveResult{}, err
	}
	var res ExhaustiveResult
	span := cfg.Recorder.StartSpan(obs.PhaseSearch, nil)
	defer span.End()

	bounds, base, err := searchBounds(im, cfg)
	if err != nil {
		return ExhaustiveResult{}, err
	}
	if cfg.Policy == nil && cfg.UseConditions && cfg.P >= 2 && !bounds.Feasible() {
		res.Stats.PrunedCondition1 = 1
		span.End()
		res.Report = cfg.Recorder.Snapshot()
		return res, nil
	}

	eval := newEvaluator(im, m, nil, cfg, bounds)
	eval.seedBase(base)
	nodes := m.Lattice().AllNodes()
	cfg.Recorder.AddLatticeNodes(int64(len(nodes)))
	outs, err := eval.evalAll(nodes, &res.Stats)
	if err != nil {
		return ExhaustiveResult{}, err
	}
	var hits []MinimalNode
	for i, o := range outs {
		if o.ok {
			hits = append(hits, MinimalNode{Node: nodes[i], Masked: o.masked, Suppressed: o.suppressed})
			res.Satisfying = append(res.Satisfying, nodes[i])
		}
	}
	for _, n := range lattice.Minimal(res.Satisfying) {
		for _, h := range hits {
			if h.Node.Equal(n) {
				res.Minimal = append(res.Minimal, h)
				break
			}
		}
	}
	if err := attachFrontier(eval, m.Lattice(), false, &res.Stats, &res.Frontier, &span); err != nil {
		return ExhaustiveResult{}, err
	}
	if res.Minimal, err = eval.materializeReported(res.Minimal); err != nil {
		return ExhaustiveResult{}, err
	}
	res.StopReason = eval.lim.stopReason()
	span.End()
	res.Report = cfg.Recorder.Snapshot()
	return res, nil
}
