package main

import (
	"fmt"
	"runtime"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/generalize"
	"psk/internal/lattice"
	"psk/internal/search"
	"psk/internal/table"
)

// adultConfig is the search configuration the workloads share: the
// paper's Adult quasi-identifiers and confidential attributes, the two
// necessary conditions on, MaxSuppress = rows/100 and one search worker
// per CPU.
func adultConfig(rows, k, p int) (search.Config, error) {
	hs, err := dataset.Hierarchies()
	if err != nil {
		return search.Config{}, err
	}
	return search.Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             k,
		P:             p,
		MaxSuppress:   rows / 100,
		UseConditions: true,
		Workers:       runtime.NumCPU(),
	}, nil
}

// latticeSize is the number of nodes of the Adult generalization
// lattice.
func latticeSize(cfg search.Config) (int, error) {
	m, err := generalize.NewMasker(cfg.QIs, cfg.Hierarchies)
	if err != nil {
		return 0, err
	}
	return m.Lattice().Size(), nil
}

// replay re-runs a search's per-node pipeline serially through the
// public functions of each layer, under spans, so the layers the search
// reaches only internally get a measured cost: the bounds scan, the one
// base row scan, the level maps of a fresh generalized-column cache, the
// roll-ups, the policy verdicts and the materialization (generalize from
// the cache, then suppress within the budget) of every satisfying node. It walks the lattice the way the strategy does and
// rolls each node up from its highest evaluated descendant, as the
// search's roll-up store does. It measures the layers; the search's own
// time always comes from the real search call.
type replay struct {
	im     *table.Table
	cfg    search.Config
	lat    *lattice.Lattice
	masker *generalize.Masker
	cache  *generalize.Cache
	policy core.Policy
	ot     opTrace

	done  []lattice.Node
	stats map[string]*table.GroupStats
}

func newReplay(im *table.Table, cfg search.Config, ot opTrace) (*replay, error) {
	m, err := generalize.NewMasker(cfg.QIs, cfg.Hierarchies)
	if err != nil {
		return nil, err
	}
	r := &replay{
		im: im, cfg: cfg, lat: m.Lattice(), masker: m, cache: m.NewCache(im), ot: ot,
		stats: make(map[string]*table.GroupStats),
	}
	var bounds core.Bounds
	err = ot.span("core.bounds", func() (err error) {
		bounds, err = core.ComputeBounds(im, cfg.Confidential, cfg.P)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.policy = core.WithBounds(core.PSensitiveKAnonymityPolicy{P: cfg.P, K: cfg.K}, bounds)
	return r, nil
}

// statsFor returns the node's pre-suppression group statistics: the
// base scan for the lattice bottom, a roll-up from the highest evaluated
// descendant otherwise.
func (r *replay) statsFor(node lattice.Node) (*table.GroupStats, error) {
	var from lattice.Node
	for _, d := range r.done {
		if node.StrictGeneralizationOf(d) && (from == nil || d.Height() > from.Height()) {
			from = d
		}
	}
	if from == nil {
		bottom := r.lat.Bottom()
		var bs *table.GroupStats
		err := r.ot.span("table.base_scan", func() (err error) {
			bs, err = r.im.GroupStats(r.cfg.QIs, r.cfg.Confidential, r.cfg.Workers)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.keep(bottom, bs)
		if node.Equal(bottom) {
			return bs, nil
		}
		from = bottom
	}
	maps := make([]*table.CodeMap, len(r.cfg.QIs))
	err := r.ot.span("generalize.level_map", func() error {
		for i, attr := range r.cfg.QIs {
			cm, err := r.cache.LevelMap(attr, from[i], node[i])
			if err != nil {
				return err
			}
			maps[i] = cm
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.ot.count("generalize.level_map_calls", float64(len(maps)))
	var rolled *table.GroupStats
	err = r.ot.span("table.rollup", func() (err error) {
		rolled, err = r.stats[from.Key()].Rollup(maps)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.ot.count("table.rollup_calls", 1)
	r.keep(node, rolled)
	return rolled, nil
}

func (r *replay) keep(node lattice.Node, s *table.GroupStats) {
	r.done = append(r.done, node.Clone())
	r.stats[node.Key()] = s
}

// eval is the search engine's per-node step: statistics, suppression
// within the budget, the verdict, and materialization when satisfied.
func (r *replay) eval(node lattice.Node) (bool, error) {
	s, err := r.statsFor(node)
	if err != nil {
		return false, err
	}
	if s.TuplesBelow(r.cfg.K) > r.cfg.MaxSuppress {
		return false, nil
	}
	post := s.SuppressBelow(r.cfg.K)
	var res core.Result
	err = r.ot.span("core.verdict", func() (err error) {
		res, err = r.policy.Evaluate(core.StatsView{Stats: post, Conf: r.cfg.Confidential})
		return err
	})
	if err != nil {
		return false, err
	}
	r.ot.count("core.verdict_calls", 1)
	if !res.Satisfied {
		return false, nil
	}
	err = r.ot.span("generalize.materialize", func() error {
		g, err := r.cache.ApplyQIs(r.cfg.QIs, node)
		if err != nil {
			return err
		}
		_, _, within, err := r.masker.SuppressWithin(g, r.cfg.K, r.cfg.MaxSuppress)
		if err == nil && !within {
			err = fmt.Errorf("node %v exceeds the suppression budget on rows", node)
		}
		return err
	})
	return err == nil, err
}

// firstAt evaluates the nodes of one height in lattice order and returns
// the first satisfying one, or nil.
func (r *replay) firstAt(h int) (lattice.Node, error) {
	for _, n := range r.lat.NodesAtHeight(h) {
		ok, err := r.eval(n)
		if err != nil || ok {
			return n, err
		}
	}
	return nil, nil
}

// samarati walks the lattice the way search.Samarati does: a binary
// search on height, probing each height's nodes in order up to the
// first satisfying one.
func (r *replay) samarati() (lattice.Node, error) {
	low, high := 0, r.lat.Height()
	var found lattice.Node
	for low < high {
		try := (low + high) / 2
		n, err := r.firstAt(try)
		if err != nil {
			return nil, err
		}
		if n != nil {
			found, high = n, try
		} else {
			low = try + 1
		}
	}
	if found == nil || found.Height() != low {
		n, err := r.firstAt(low)
		if err != nil {
			return nil, err
		}
		if n != nil {
			found = n
		}
	}
	if found == nil {
		return nil, fmt.Errorf("replay found no satisfying node")
	}
	return found, nil
}

// exhaustive evaluates every node as search.Exhaustive does and returns
// the minimal satisfying ones.
func (r *replay) exhaustive() ([]lattice.Node, error) {
	var sat []lattice.Node
	for _, n := range r.lat.AllNodes() {
		ok, err := r.eval(n)
		if err != nil {
			return nil, err
		}
		if ok {
			sat = append(sat, n)
		}
	}
	return lattice.Minimal(sat), nil
}

// countStats records the search's own work counters.
func countStats(ot opTrace, s search.Stats) {
	ot.count("search.nodes_evaluated", float64(s.NodesEvaluated))
	ot.count("search.pruned_condition2", float64(s.PrunedCondition2))
	ot.count("search.group_scans", float64(s.GroupScans))
}
