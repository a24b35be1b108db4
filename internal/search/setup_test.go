package search

import (
	"fmt"
	"testing"

	"psk/internal/dataset"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/obs"
)

// TestCondition1EveryStrategy: with the bounds derived from the
// up-front base statistics, an infeasible p is still rejected before
// any node is evaluated — on every strategy, worker count and ablation.
func TestCondition1EveryStrategy(t *testing.T) {
	tbl := figure3Table(t)
	for _, s := range strategies() {
		for _, workers := range []int{1, 2, 4} {
			for _, ablation := range []string{"rollup", "no-rollup", "no-cache"} {
				t.Run(fmt.Sprintf("%s/w%d/%s", s.name, workers, ablation), func(t *testing.T) {
					cfg := kOnlyConfig(t, 10)
					cfg.P, cfg.K = 4, 4 // Illness has only 3 distinct values
					cfg.Workers = workers
					cfg.DisableRollup = ablation == "no-rollup"
					cfg.DisableCache = ablation == "no-cache"
					stats, reason, min, err := s.run(tbl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if stats.PrunedCondition1 != 1 || stats.NodesEvaluated != 0 || len(min) != 0 || reason != StopDone {
						t.Fatalf("stats %+v, reason %v, %d minimal nodes", stats, reason, len(min))
					}
				})
			}
		}
	}
}

// TestOneGroupByPhase: a search scans rows once, up front, under
// PhaseGroupBy — the bounds come from that scan's statistics, not from
// a second, unphased pass.
func TestOneGroupByPhase(t *testing.T) {
	src, base := adultSample(t, 3000)
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			cfg := base
			cfg.Recorder = obs.NewRecorder()
			if _, _, _, err := s.run(src, cfg); err != nil {
				t.Fatal(err)
			}
			n := int64(0)
			for _, p := range cfg.Recorder.Snapshot().Phases {
				if p.Phase == obs.PhaseGroupBy.String() {
					n = p.Count
				}
			}
			if n != 1 {
				t.Fatalf("%d %s samples, want 1", n, obs.PhaseGroupBy)
			}
		})
	}
}

// TestStatsForBuildsNoColumns: the statistics of all 96 Adult lattice
// nodes come from the base scan and dictionary level maps alone; no
// generalized row column is built until a node is materialized.
func TestStatsForBuildsNoColumns(t *testing.T) {
	src, err := dataset.GenerateScaled(1, 2006)
	if err != nil {
		t.Fatal(err)
	}
	_, cfg := adultSample(t, 1)
	m, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	bounds, base, err := searchBounds(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := newEvaluator(src, m, nil, cfg, bounds)
	e.seedBase(base)
	nodes := m.Lattice().AllNodes()
	if len(nodes) != 96 {
		t.Fatalf("Adult lattice has %d nodes, want 96", len(nodes))
	}
	for _, node := range nodes {
		if _, err := e.statsFor(node); err != nil {
			t.Fatal(err)
		}
	}
	if b := e.cache.Bytes(); b != 0 {
		t.Fatalf("statistics of every node built %d bytes of level columns", b)
	}
	if scans := e.rollups.rowScans.Load(); scans != 1 {
		t.Fatalf("%d row scans, want 1", scans)
	}
	var o outcome
	e.materialize(lattice.Node{1, 1, 1, 1}, &o)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if e.cache.Bytes() == 0 {
		t.Fatal("materializing a generalized node built no column")
	}
}

// crossingZip is a deliberately non-nested ZipCode hierarchy for the
// Figure 3 zip codes: level 1 groups them by their first three digits,
// level 2 splits every level-1 group across two labels, so level-1
// labels do not determine level-2 labels.
type crossingZip struct{}

func (crossingZip) Attribute() string          { return "ZipCode" }
func (crossingZip) Height() int                { return 2 }
func (crossingZip) LevelName(level int) string { return fmt.Sprintf("Z%d", level) }
func (crossingZip) Generalize(v string, level int) (string, error) {
	if level == 0 {
		return v, nil
	}
	labels := map[string][2]string{
		"41076": {"410", "X"}, "41099": {"410", "Y"},
		"43102": {"431", "X"}, "43103": {"431", "Y"},
		"48201": {"482", "X"}, "48202": {"482", "Y"},
	}
	l, ok := labels[v]
	if !ok || level > 2 {
		return "", fmt.Errorf("crossingZip: no label for %q at level %d", v, level)
	}
	return l[level-1], nil
}

// TestNonNestedFallsBackToRows: with a non-nested hierarchy a level
// map between generalized levels is not a function, so the roll-up
// falls back to scanning the node's rows — and every strategy still
// returns what the roll-up-free ablation returns.
func TestNonNestedFallsBackToRows(t *testing.T) {
	tbl := figure3Table(t)
	hs, err := hierarchy.NewSet(hierarchy.NewFlat("Sex"), crossingZip{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			cfg := kOnlyConfig(t, 2)
			cfg.Hierarchies = hs
			direct := cfg
			direct.DisableRollup = true
			gotStats, gotReason, got, err := s.run(tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantStats, wantReason, want, err := s.run(tbl, direct)
			if err != nil {
				t.Fatal(err)
			}
			if !sameStats(gotStats, wantStats) || gotReason != wantReason || fmtMinimal(got) != fmtMinimal(want) {
				t.Fatalf("roll-up %+v %v %s; direct %+v %v %s", gotStats, gotReason, fmtMinimal(got), wantStats, wantReason, fmtMinimal(want))
			}
		})
	}
	cfg := kOnlyConfig(t, 2)
	cfg.Hierarchies = hs
	m, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	bounds, base, err := searchBounds(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := newEvaluator(tbl, m, nil, cfg, bounds)
	e.seedBase(base)
	for _, node := range []lattice.Node{{0, 1}, {0, 2}} {
		if o := e.evalNode(node); o.err != nil {
			t.Fatal(o.err)
		}
	}
	if scans := e.rollups.rowScans.Load(); scans != 2 {
		t.Fatalf("%d row scans, want 2 (base scan, then <0,2> from rows)", scans)
	}
}

// TestSpeculativeHitsNotMaterialized: with several workers, nodes past
// a height's first hit are evaluated speculatively and discarded. Their
// hits must not build masked tables: Samarati materializes exactly as
// many nodes at every worker count as the serial search does.
func TestSpeculativeHitsNotMaterialized(t *testing.T) {
	src, base := adultSample(t, 3000)
	want := int64(-1)
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		cfg.Recorder = obs.NewRecorder()
		if _, err := Samarati(src, cfg); err != nil {
			t.Fatal(err)
		}
		n := int64(0)
		for _, p := range cfg.Recorder.Snapshot().Phases {
			if p.Phase == obs.PhaseMaterialize.String() {
				n = p.Count
			}
		}
		if want < 0 {
			want = n
		}
		if n != want || n == 0 {
			t.Fatalf("workers=%d: %d materializations, serial search %d", workers, n, want)
		}
	}
}
