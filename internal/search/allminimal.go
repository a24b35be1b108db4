package search

import (
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// AllMinimal enumerates every p-k-minimal generalization (Definition 3)
// using predictive tagging in the style of El Emam's Optimal Lattice
// Anonymization: the lattice is walked bottom-up, and as soon as a node
// satisfies the property every strict generalization of it is tagged
// and never evaluated — by generalization monotonicity they all satisfy
// but none can be minimal. An untagged node that evaluates to
// satisfied therefore has only failing predecessors, which makes it
// minimal by construction.
//
// Compared with Exhaustive (which evaluates all prod(h_i + 1) nodes)
// this skips the entire up-set of every minimal node; compared with
// BottomUp it returns the complete minimal antichain, not only the
// minimal-height slice. Like Samarati it relies on the monotonicity
// premise of the paper; Exhaustive remains the assumption-free
// reference.
func AllMinimal(im *table.Table, cfg Config) (ExhaustiveResult, error) {
	cfg.strategy = "all-minimal"
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
	lat := m.Lattice()
	cfg.Recorder.AddLatticeNodes(int64(lat.Size()))
	tagged := make(map[string]bool) // known satisfied via a specialization
	for h := 0; h <= lat.Height(); h++ {
		// Tagging only ever marks strict generalizations — nodes at
		// strictly greater heights — so the level's tag state is fixed
		// before any of its nodes is evaluated. That makes the untagged
		// frontier of each level a set of independent evaluations, which
		// the engine can fan out across workers; results merge back in
		// node order, identical to the serial walk.
		nodes := lat.NodesAtHeight(h)
		var candidates []lattice.Node
		candIdx := make([]int, len(nodes)) // node index -> candidate index, -1 if tagged
		for i, node := range nodes {
			if tagged[node.Key()] {
				candIdx[i] = -1
				continue
			}
			candIdx[i] = len(candidates)
			candidates = append(candidates, node)
		}
		outs, err := eval.evalAll(candidates, &res.Stats)
		if err != nil {
			return ExhaustiveResult{}, err
		}
		for i, node := range nodes {
			if candIdx[i] < 0 {
				res.Satisfying = append(res.Satisfying, node)
				tagUp(lat, node, tagged)
				continue
			}
			if o := outs[candIdx[i]]; o.ok {
				res.Satisfying = append(res.Satisfying, node)
				res.Minimal = append(res.Minimal, MinimalNode{Node: node, Masked: o.masked, Suppressed: o.suppressed})
				tagUp(lat, node, tagged)
			}
		}
		if eval.lim.tripped() {
			// Levels below completed in full, so every node in Minimal is
			// genuinely minimal; higher levels stay unexplored.
			break
		}
	}
	if err := attachFrontier(eval, lat, true, &res.Stats, &res.Frontier, &span); err != nil {
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

// tagUp marks every strict generalization of node as known-satisfied.
func tagUp(lat *lattice.Lattice, node lattice.Node, tagged map[string]bool) {
	for _, succ := range lat.Successors(node) {
		if !tagged[succ.Key()] {
			tagged[succ.Key()] = true
			tagUp(lat, succ, tagged)
		}
	}
}
