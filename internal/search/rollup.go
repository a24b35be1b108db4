package search

import (
	"fmt"
	"sync"
	"sync/atomic"

	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// rollupStore keeps the pre-suppression group statistics of every
// lattice node one search has evaluated, so later nodes derive their
// statistics by merging an already-evaluated descendant's groups
// (table.GroupStats.Rollup) instead of re-scanning rows. Storing the
// statistics *before* suppression is what makes the roll-up exact at
// every node: generalization is a function of the source rows alone,
// so a node's pre-suppression groups are always a pure merge of any
// descendant's pre-suppression groups, regardless of which tuples
// suppression would remove at either node (suppression then drops
// whole sub-k groups, which SuppressBelow replays on the statistics).
//
// The store is safe for concurrent use by the evaluator's worker pool:
// entries are created under the mutex, computed once by their creator,
// and published by closing done. Waiting on another node's entry can
// never deadlock — a creator's computation waits on nothing (it reads
// only completed entries).
type rollupStore struct {
	mu      sync.Mutex
	entries map[string]*rollupEntry
	// rowScans counts the row scans behind the store's entries: the
	// up-front base scan (seedBase) plus any node whose roll-up failed.
	// For a nested hierarchy set it stays at 1, which
	// TestRollupStoreScansOnce pins.
	rowScans atomic.Int64
}

type rollupEntry struct {
	node lattice.Node
	done chan struct{}
	// completed is set under the store mutex when stats/err are final;
	// nearestDescendant only considers completed entries, so it never
	// blocks on an in-flight computation.
	completed bool
	stats     *table.GroupStats
	err       error
}

func newRollupStore() *rollupStore {
	return &rollupStore{entries: make(map[string]*rollupEntry)}
}

// acquire returns the entry for the node, creating it if absent. The
// caller that observes created == true owns the computation and must
// call finish exactly once; everyone else waits on done.
func (s *rollupStore) acquire(node lattice.Node) (e *rollupEntry, created bool) {
	key := node.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		return e, false
	}
	e = &rollupEntry{node: node.Clone(), done: make(chan struct{})}
	s.entries[key] = e
	return e, true
}

// finish publishes the entry's result.
func (s *rollupStore) finish(e *rollupEntry, stats *table.GroupStats, err error) {
	s.mu.Lock()
	e.stats, e.err = stats, err
	e.completed = true
	s.mu.Unlock()
	close(e.done)
}

// seed pre-populates the store with an externally derived node's
// statistics (Incognito projects the full-QI base statistics onto each
// subset to seed the subset lattice's bottom without a row scan). A
// node already present is left untouched.
func (s *rollupStore) seed(node lattice.Node, stats *table.GroupStats) {
	e, created := s.acquire(node)
	if created {
		s.finish(e, stats, nil)
	}
}

// nearestDescendant returns the completed entry whose node the given
// node generalizes, preferring the greatest lattice height (fewest
// groups, so the cheapest merge); nil when no strict descendant has
// completed without error.
func (s *rollupStore) nearestDescendant(node lattice.Node) *rollupEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *rollupEntry
	for _, e := range s.entries {
		if !e.completed || e.err != nil || !node.StrictGeneralizationOf(e.node) {
			continue
		}
		if best == nil || e.node.Height() > best.node.Height() {
			best = e
		}
	}
	return best
}

// buildStats computes the node's pre-suppression statistics from rows:
// the sharded, parallel group-by over the node's generalized table.
func (e *evaluator) buildStats(node lattice.Node) (*table.GroupStats, error) {
	g, err := e.cache.ApplyQIs(e.qis, node)
	if err != nil {
		return nil, err
	}
	w := e.cfg.Workers
	if w < 1 {
		w = 1
	}
	return g.GroupStats(e.qis, e.conf, w)
}

// seedBase installs the lattice bottom's statistics, scanned up front
// by searchBounds, as the roll-up store's bottom entry. That scan is
// the search's one base-level row scan, so it is counted as one. A nil
// base (the ablations) or store leaves the evaluator untouched.
func (e *evaluator) seedBase(base *table.GroupStats) {
	if base == nil || e.rollups == nil {
		return
	}
	e.rollups.rowScans.Add(1)
	e.rec.RollupRowScan()
	e.rollups.seed(make(lattice.Node, len(e.qis)), base)
}

// statsFor returns the node's pre-suppression group statistics,
// rolling up from the nearest already-evaluated descendant. The store's
// bottom entry is seeded before the search evaluates any node
// (seedBase, or a projection in Incognito's subset lattices), so every
// node is an ancestor of something in the store and merges groups
// instead of scanning rows.
func (e *evaluator) statsFor(node lattice.Node) (*table.GroupStats, error) {
	entry, created := e.rollups.acquire(node)
	if !created {
		e.rec.RollupReuse()
		<-entry.done
		return entry.stats, entry.err
	}
	// The creator owns the computation and must publish the entry even
	// if the computation panics — otherwise every worker waiting on
	// entry.done would block forever and the pool could never drain. The
	// panic is re-raised after publishing; evalSafe turns it into this
	// node's error outcome, while the waiters see the recorded error.
	finished := false
	defer func() {
		if !finished {
			err := fmt.Errorf("search: rollup stats for node %v: computation panicked", node)
			e.rollups.finish(entry, nil, err)
		}
	}()
	stats, err := e.computeStats(node)
	finished = true
	e.rollups.finish(entry, stats, err)
	return stats, err
}

func (e *evaluator) computeStats(node lattice.Node) (*table.GroupStats, error) {
	if src := e.rollups.nearestDescendant(node); src != nil {
		rollStart := e.rec.Start()
		maps, err := e.levelMaps(src.node, node)
		if err == nil {
			rolled, rerr := src.stats.Rollup(maps)
			if rerr == nil {
				e.rec.PhaseEnd(obs.PhaseRollup, rollStart)
				e.rec.RollupMerge()
				return rolled, nil
			}
		}
		e.rec.PhaseEnd(obs.PhaseRollup, rollStart)
		// A roll-up can only fail when a hierarchy is not a nested
		// refinement (level maps are then not functional). The direct
		// scan still defines the node's statistics, so fall back rather
		// than failing a search the direct path would complete.
	}
	e.rollups.rowScans.Add(1)
	e.rec.RollupRowScan()
	scanStart := e.rec.Start()
	stats, err := e.buildStats(node)
	e.rec.PhaseEnd(obs.PhaseGroupBy, scanStart)
	return stats, err
}

// levelMaps assembles the per-QI code translations from one node's
// levels to another's, served from the shared generalized-column cache.
func (e *evaluator) levelMaps(from, to lattice.Node) ([]*table.CodeMap, error) {
	if len(from) != len(to) || len(from) != len(e.qis) {
		return nil, fmt.Errorf("search: level maps between nodes %v and %v over %d attributes", from, to, len(e.qis))
	}
	maps := make([]*table.CodeMap, len(e.qis))
	for i, attr := range e.qis {
		cm, err := e.cache.LevelMap(attr, from[i], to[i])
		if err != nil {
			return nil, err
		}
		maps[i] = cm
	}
	return maps, nil
}
