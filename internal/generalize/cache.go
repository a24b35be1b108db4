package generalize

import (
	"fmt"
	"sync"
	"sync/atomic"

	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// Cache memoizes, for each (QI attribute, hierarchy level) pair of one
// source table, the level's translation of the attribute's dictionary
// (table.Recoding) and — only once a node is materialized — the
// generalized column built from it, so a lattice search re-generalizes
// each column at most once per level instead of once per node. A
// node's masked table is assembled by swapping cached columns into the
// source table (O(#QIs) pointer work) rather than re-walking
// hierarchies per row.
//
// The translations alone serve the roll-up layer: LevelMap derives
// level-to-level code maps from them in O(cardinality), so statistics
// move up the lattice without any generalized column being built.
//
// A Cache is safe for concurrent use: each entry is computed exactly
// once behind a per-entry sync.Once, and entries are immutable
// afterwards, which is what lets the parallel search engine share one
// Cache across its whole worker pool without further locking.
type Cache struct {
	src *table.Table
	m   *Masker

	mu     sync.Mutex
	levels map[colKey]*levelEntry
	maps   map[mapKey]*mapEntry

	// rec is the telemetry sink, if any. An atomic pointer because
	// Incognito shares one cache across sub-searches that may attach a
	// recorder while workers from an earlier phase still read it.
	rec atomic.Pointer[obs.Recorder]

	// bytes is the estimated memory (table.MemBytes) of all columns
	// built so far, maintained unconditionally — unlike the telemetry
	// counters — because Budget.MaxCacheBytes enforcement reads it
	// between node evaluations whether or not a recorder is attached.
	// Translations and level maps are O(cardinality) and not counted.
	bytes atomic.Int64
}

type colKey struct {
	attr  string
	level int
}

// levelEntry memoizes one (attribute, level): its dictionary
// translation, and the row column built from it once a node at that
// level is materialized.
type levelEntry struct {
	rcOnce sync.Once
	rc     *table.Recoding
	rcErr  error

	colOnce  sync.Once
	col      table.Column
	colBytes int64
	colErr   error
}

type mapKey struct {
	attr     string
	from, to int
}

type mapEntry struct {
	once sync.Once
	cm   *table.CodeMap
	err  error
}

// NewCache binds a cache to one source table. The cache serves every QI
// subset of the masker (Incognito's sub-searches share it), because
// entries are keyed by attribute name, not by QI position.
func (m *Masker) NewCache(src *table.Table) *Cache {
	return &Cache{
		src: src, m: m,
		levels: make(map[colKey]*levelEntry),
		maps:   make(map[mapKey]*mapEntry),
	}
}

// Source returns the table the cache generalizes.
func (c *Cache) Source() *table.Table { return c.src }

// Observe attaches a telemetry recorder; hits, misses and built-column
// bytes are reported to it from then on. A nil recorder detaches.
func (c *Cache) Observe(rec *obs.Recorder) {
	c.rec.Store(rec)
}

// recorder returns the attached recorder (nil when telemetry is off;
// obs methods are nil-safe so callers don't guard).
func (c *Cache) recorder() *obs.Recorder { return c.rec.Load() }

// level returns the memo entry of (attr, level), creating it if absent.
func (c *Cache) level(attr string, level int) *levelEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.levels[colKey{attr, level}]
	if !ok {
		e = &levelEntry{}
		c.levels[colKey{attr, level}] = e
	}
	return e
}

// recoding returns the translation of attr's dictionary to the given
// hierarchy level, computing and memoizing it on first use: the
// hierarchy walk runs once per dictionary entry, and no row is read.
func (c *Cache) recoding(attr string, level int) (*table.Recoding, error) {
	e := c.level(attr, level)
	e.rcOnce.Do(func() {
		h, err := c.m.hiers.Get(attr)
		if err != nil {
			e.rcErr = fmt.Errorf("generalize: %w", err)
			return
		}
		e.rc, e.rcErr = c.src.Recode(attr, func(v table.Value) (string, error) {
			return h.Generalize(v.Str(), level)
		})
		if e.rcErr != nil {
			e.rcErr = fmt.Errorf("generalize: cache %s level %d: %w", attr, level, e.rcErr)
		}
	})
	return e.rc, e.rcErr
}

// Column returns the source column for attr generalized to the given
// hierarchy level, building and memoizing it on first use: one pass
// over the rows through the level's memoized translation, so the
// column's codes are exactly the codes LevelMap translates into. Only
// materialization (ApplyQIs) needs row columns; the search's
// statistics never do.
func (c *Cache) Column(attr string, level int) (table.Column, error) {
	e := c.level(attr, level)
	built := false
	e.colOnce.Do(func() {
		built = true
		rc, err := c.recoding(attr, level)
		if err != nil {
			e.colErr = err
			return
		}
		if e.col, e.colErr = rc.Column(); e.colErr != nil {
			e.colErr = fmt.Errorf("generalize: cache %s level %d: %w", attr, level, e.colErr)
			return
		}
		e.colBytes = table.MemBytes(e.col)
		c.bytes.Add(e.colBytes)
	})
	// The goroutine that built the column reports the miss (and the
	// column's size); every other access is a hit.
	if rec := c.recorder(); rec != nil {
		if built {
			rec.CacheColumn(false, e.colBytes)
		} else {
			rec.CacheColumn(true, 0)
		}
	}
	return e.col, e.colErr
}

// Bytes returns the estimated memory currently held by built columns,
// the quantity search budgets cap with Budget.MaxCacheBytes.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// LevelMap returns the code translation for attr from one hierarchy
// level to another, computing and memoizing it on first use. A nil map
// (with nil error) means the levels are equal and the translation is
// the identity. Level 0 is the source column's own codes (ApplyQIs
// leaves level-0 attributes untouched), so LevelMap(attr, 0, to) is the
// level's dictionary translation itself, and any other pair composes
// two translations (table.RecodingMap). Either way the map costs
// O(cardinality) and reads no row. Full-domain recoding guarantees the
// translation exists whenever `to` generalizes `from`; a non-nested
// pair surfaces as a non-functional-relation error, on which the
// search falls back to scanning rows.
//
// The roll-up layer uses these maps to move QI-group keys between
// lattice nodes without rescanning rows.
func (c *Cache) LevelMap(attr string, from, to int) (*table.CodeMap, error) {
	if from == to {
		return nil, nil
	}
	c.mu.Lock()
	e, ok := c.maps[mapKey{attr, from, to}]
	if !ok {
		e = &mapEntry{}
		c.maps[mapKey{attr, from, to}] = e
	}
	c.mu.Unlock()
	c.recorder().CacheLevelMap(ok)
	e.once.Do(func() {
		// A nil translation stands for level 0, the source codes.
		var fromRC, toRC *table.Recoding
		if from != 0 {
			if fromRC, e.err = c.recoding(attr, from); e.err != nil {
				return
			}
		}
		if to != 0 {
			if toRC, e.err = c.recoding(attr, to); e.err != nil {
				return
			}
		}
		e.cm, e.err = table.RecodingMap(fromRC, toRC)
		if e.err != nil {
			e.err = fmt.Errorf("generalize: level map %s %d->%d: %w", attr, from, to, e.err)
		}
	})
	return e.cm, e.err
}

// Apply recodes the masker's quasi-identifier columns to the levels of
// the lattice node, equivalent to Masker.Apply on the cached source
// table but served from memoized columns.
func (c *Cache) Apply(node lattice.Node) (*table.Table, error) {
	if !c.m.lat.Contains(node) {
		return nil, fmt.Errorf("generalize: node %v outside lattice with dims %v", node, c.m.lat.Dims())
	}
	return c.ApplyQIs(c.m.qis, node)
}

// ApplyQIs recodes the given quasi-identifier subset (node[i] is the
// level for qis[i]); Incognito's subset lattices use this with one
// shared cache.
func (c *Cache) ApplyQIs(qis []string, node lattice.Node) (*table.Table, error) {
	if len(qis) != len(node) {
		return nil, fmt.Errorf("generalize: node %v has %d levels for %d attributes", node, len(node), len(qis))
	}
	out := c.src
	for i, attr := range qis {
		if node[i] == 0 {
			continue
		}
		col, err := c.Column(attr, node[i])
		if err != nil {
			return nil, err
		}
		out, err = out.WithColumn(attr, col)
		if err != nil {
			return nil, fmt.Errorf("generalize: apply %s level %d: %w", attr, node[i], err)
		}
	}
	return out, nil
}

// Mask is the cached fast path of Masker.Mask: Apply from memoized
// columns, then suppress residual small groups.
func (c *Cache) Mask(node lattice.Node, k int) (*table.Table, int, error) {
	g, err := c.Apply(node)
	if err != nil {
		return nil, 0, err
	}
	return c.m.Suppress(g, k)
}
