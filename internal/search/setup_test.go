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

// TestSpeculativeHitsNotMaterialized: the walk decides every node from
// its verdict, and only the nodes a strategy reports get a masked
// table. Speculative hits — a satisfying node past a height's first
// hit, an earlier Samarati probe's hit, a satisfying but non-minimal
// Exhaustive node — are never materialized, so at every worker count
// PhaseMaterialize's count equals the number of tables returned: one
// for Samarati, len(Minimal) for the enumerating strategies, none for
// frontier scoring or an incremental repair. On this sample Samarati
// has two successful probes and Exhaustive more satisfying nodes than
// minimal ones.
func TestSpeculativeHitsNotMaterialized(t *testing.T) {
	src, base := adultSample(t, 3000)
	type row struct {
		name string
		// run returns the number of masked tables the call returned and
		// the recorder's report.
		run func(t *testing.T, cfg Config) (int, *obs.Report, error)
	}
	var rows []row
	for _, s := range strategies() {
		rows = append(rows, row{s.name, func(t *testing.T, cfg Config) (int, *obs.Report, error) {
			_, _, min, err := s.run(src, cfg)
			for _, m := range min {
				if m.Masked == nil {
					t.Fatalf("%s: node %v returned without its table", s.name, m.Node)
				}
			}
			if err == nil && len(min) == 0 {
				t.Fatalf("%s: no node found", s.name)
			}
			return len(min), cfg.Recorder.Snapshot(), err
		}})
	}
	rows = append(rows, row{"frontier-scan", func(t *testing.T, cfg Config) (int, *obs.Report, error) {
		m, err := cfg.validate()
		if err != nil {
			return 0, nil, err
		}
		bounds, bs, err := searchBounds(src, cfg)
		if err != nil {
			return 0, nil, err
		}
		e := newEvaluator(src, m, nil, cfg, bounds)
		e.seedBase(bs)
		var stats Stats
		fr, err := e.frontierScan(m.Lattice(), true, &stats)
		if err == nil && len(fr) == 0 {
			t.Fatal("frontier scan scored no node")
		}
		return 0, cfg.Recorder.Snapshot(), err
	}})
	rows = append(rows, row{"incremental-repair", func(t *testing.T, cfg Config) (int, *obs.Report, error) {
		// TestIncrementalRepairAscends's scenario: the cold publish
		// materializes its node; the repair that follows reports a node
		// but returns no table, so it must build none.
		icfg := incrConfig(t, 3, 1, 0, cfg.Workers)
		icfg.Recorder = obs.NewRecorder()
		s, err := OpenIncremental(repairAscentTable(t), icfg, StrategySamarati)
		if err != nil {
			return 0, nil, err
		}
		if _, err := s.Republish(); err != nil {
			return 0, nil, err
		}
		cold := phaseStat(icfg.Recorder.Snapshot(), obs.PhaseMaterialize).Count
		if err := s.Apply(repairAscentBatch, nil); err != nil {
			return 0, nil, err
		}
		res, err := s.Republish()
		if err != nil {
			return 0, nil, err
		}
		rep := icfg.Recorder.Snapshot()
		if !res.Found || rep.Incremental.RepairAscents != 1 {
			t.Fatalf("repair found=%v after %d ascents, want one successful repair", res.Found, rep.Incremental.RepairAscents)
		}
		tables := 0
		if res.Masked != nil {
			tables = 1
		}
		// Report the repair alone: the cold publish's materialization
		// is subtracted from the phase count.
		for i := range rep.Phases {
			if rep.Phases[i].Phase == obs.PhaseMaterialize.String() {
				rep.Phases[i].Count -= cold
			}
		}
		return tables, rep, nil
	}})
	for _, r := range rows {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", r.name, workers), func(t *testing.T) {
				cfg := base
				cfg.Workers = workers
				cfg.Recorder = obs.NewRecorder()
				tables, rep, err := r.run(t, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := phaseStat(rep, obs.PhaseMaterialize).Count; n != int64(tables) {
					t.Fatalf("%d materializations for %d returned tables", n, tables)
				}
				if workers != 1 {
					return
				}
				// The sample must exercise the speculative hits the
				// engine skips (the walks are serial here, so each
				// Samarati probe stops at its first hit).
				switch r.name {
				case "samarati":
					if rep.Nodes.Satisfied < 2 {
						t.Fatalf("Samarati had %d successful probes, want >= 2", rep.Nodes.Satisfied)
					}
				case "exhaustive":
					if rep.Nodes.Satisfied <= int64(tables) {
						t.Fatalf("Exhaustive: %d satisfying nodes, %d minimal", rep.Nodes.Satisfied, tables)
					}
				}
			})
		}
	}
}

// phaseStat returns what rep recorded for phase p (zero if nothing).
func phaseStat(rep *obs.Report, p obs.Phase) obs.PhaseStat {
	for _, ps := range rep.Phases {
		if ps.Phase == p.String() {
			return ps
		}
	}
	return obs.PhaseStat{}
}
