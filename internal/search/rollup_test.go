package search

import (
	"fmt"
	"math/rand"
	"testing"

	"psk/internal/hierarchy"
	"psk/internal/table"
)

// The roll-up store promises results byte-identical to PR 1's
// row-scanning engine: same found nodes, same masked microdata, same
// suppression counts, same stats totals — at every worker count and
// for every strategy. These tests pin that promise; run with -race to
// also exercise the store's synchronization.

// TestRollupAblationMatches compares every strategy with the roll-up
// store on (default) and off (DisableRollup) across the full fixture
// grid.
func TestRollupAblationMatches(t *testing.T) {
	tbl := figure3Table(t)
	for _, p := range []int{1, 2} {
		for ts := 0; ts <= 10; ts += 2 {
			for _, useCond := range []bool{true, false} {
				for _, w := range []int{1, 4} {
					rolled := kOnlyConfig(t, ts)
					rolled.P = p
					rolled.UseConditions = useCond
					rolled.Workers = w
					direct := rolled
					direct.DisableRollup = true
					name := fmt.Sprintf("p=%d/TS=%d/cond=%v/w=%d", p, ts, useCond, w)

					sa, err := Samarati(tbl, rolled)
					if err != nil {
						t.Fatal(err)
					}
					sb, err := Samarati(tbl, direct)
					if err != nil {
						t.Fatal(err)
					}
					if sa.Found != sb.Found || !sameStats(sa.Stats, sb.Stats) ||
						sa.Suppressed != sb.Suppressed ||
						(sa.Found && !sa.Node.Equal(sb.Node)) ||
						fmtMasked(sa.Masked) != fmtMasked(sb.Masked) {
						t.Errorf("%s: rollup changed the Samarati outcome: %+v vs %+v", name, sa, sb)
					}

					ea, err := Exhaustive(tbl, rolled)
					if err != nil {
						t.Fatal(err)
					}
					eb, err := Exhaustive(tbl, direct)
					if err != nil {
						t.Fatal(err)
					}
					if !sameStats(ea.Stats, eb.Stats) ||
						fmt.Sprint(ea.Satisfying) != fmt.Sprint(eb.Satisfying) ||
						fmtMinimal(ea.Minimal) != fmtMinimal(eb.Minimal) {
						t.Errorf("%s: rollup changed the Exhaustive outcome", name)
					}

					ba, err := BottomUp(tbl, rolled)
					if err != nil {
						t.Fatal(err)
					}
					bb, err := BottomUp(tbl, direct)
					if err != nil {
						t.Fatal(err)
					}
					if !sameStats(ba.Stats, bb.Stats) ||
						fmt.Sprint(ba.Satisfying) != fmt.Sprint(bb.Satisfying) ||
						fmtMinimal(ba.Minimal) != fmtMinimal(bb.Minimal) {
						t.Errorf("%s: rollup changed the BottomUp outcome", name)
					}

					aa, err := AllMinimal(tbl, rolled)
					if err != nil {
						t.Fatal(err)
					}
					ab, err := AllMinimal(tbl, direct)
					if err != nil {
						t.Fatal(err)
					}
					if !sameStats(aa.Stats, ab.Stats) ||
						fmt.Sprint(aa.Satisfying) != fmt.Sprint(ab.Satisfying) ||
						fmtMinimal(aa.Minimal) != fmtMinimal(ab.Minimal) {
						t.Errorf("%s: rollup changed the AllMinimal outcome", name)
					}

					ia, err := Incognito(tbl, rolled)
					if err != nil {
						t.Fatal(err)
					}
					ib, err := Incognito(tbl, direct)
					if err != nil {
						t.Fatal(err)
					}
					if !sameStats(ia.Stats, ib.Stats) ||
						ia.PrunedBySubsets != ib.PrunedBySubsets ||
						ia.SubsetsEvaluated != ib.SubsetsEvaluated ||
						fmtMinimal(ia.Minimal) != fmtMinimal(ib.Minimal) {
						t.Errorf("%s: rollup changed the Incognito outcome", name)
					}
				}
			}
		}
	}
}

// randomSearchFixture builds an n-row microdata with three prefix-coded
// QIs and one confidential attribute, plus matching hierarchies — a
// deeper lattice than the Figure 3 fixture, so roll-ups chain across
// several levels.
func randomSearchFixture(t testing.TB, rng *rand.Rand, n int) (*table.Table, Config) {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Zip", Type: table.String},
		table.Field{Name: "Age", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
	)
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("4%d%d", rng.Intn(3), rng.Intn(4)),
			fmt.Sprintf("%d%d", 2+rng.Intn(4), rng.Intn(10)),
			[]string{"M", "F"}[rng.Intn(2)],
			fmt.Sprintf("d%d", rng.Intn(5)),
		}
	}
	tbl, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	zip, err := hierarchy.NewPrefix("Zip", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	age, err := hierarchy.NewPrefix("Age", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sex := hierarchy.NewFlat("Sex")
	sex.Top = "Person"
	cfg := Config{
		QIs:          []string{"Zip", "Age", "Sex"},
		Confidential: []string{"Illness"},
		Hierarchies:  hierarchy.MustSet(zip, age, sex),
	}
	return tbl, cfg
}

// TestRollupRandomizedEquivalence: on randomized tables and a deeper
// lattice, the roll-up and direct paths must agree for every strategy,
// at serial and parallel worker counts (run with -race).
func TestRollupRandomizedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl, base := randomSearchFixture(t, rng, 150+rng.Intn(250))
		base.K = 2 + rng.Intn(3)
		base.P = 1 + rng.Intn(2)
		if base.P > base.K {
			base.P = base.K
		}
		base.MaxSuppress = rng.Intn(20)
		base.UseConditions = rng.Intn(2) == 0
		for _, w := range []int{1, 4} {
			rolled := base
			rolled.Workers = w
			direct := rolled
			direct.DisableRollup = true
			name := fmt.Sprintf("seed=%d w=%d K=%d P=%d TS=%d cond=%v",
				seed, w, base.K, base.P, base.MaxSuppress, base.UseConditions)

			ea, err := Exhaustive(tbl, rolled)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := Exhaustive(tbl, direct)
			if err != nil {
				t.Fatal(err)
			}
			if !sameStats(ea.Stats, eb.Stats) ||
				fmt.Sprint(ea.Satisfying) != fmt.Sprint(eb.Satisfying) ||
				fmtMinimal(ea.Minimal) != fmtMinimal(eb.Minimal) {
				t.Errorf("%s: rollup changed the Exhaustive outcome", name)
			}

			sa, err := Samarati(tbl, rolled)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := Samarati(tbl, direct)
			if err != nil {
				t.Fatal(err)
			}
			if sa.Found != sb.Found || !sameStats(sa.Stats, sb.Stats) ||
				sa.Suppressed != sb.Suppressed ||
				(sa.Found && !sa.Node.Equal(sb.Node)) ||
				fmtMasked(sa.Masked) != fmtMasked(sb.Masked) {
				t.Errorf("%s: rollup changed the Samarati outcome", name)
			}

			ia, err := Incognito(tbl, rolled)
			if err != nil {
				t.Fatal(err)
			}
			ib, err := Incognito(tbl, direct)
			if err != nil {
				t.Fatal(err)
			}
			if !sameStats(ia.Stats, ib.Stats) ||
				ia.PrunedBySubsets != ib.PrunedBySubsets ||
				ia.SubsetsEvaluated != ib.SubsetsEvaluated ||
				fmtMinimal(ia.Minimal) != fmtMinimal(ib.Minimal) {
				t.Errorf("%s: rollup changed the Incognito outcome", name)
			}
		}
	}
}

// TestRollupStoreScansOnce: an exhaustive search over the whole lattice
// must scan rows exactly once — the up-front base scan searchBounds
// takes the bounds from and seeds the store with; every node's
// statistics, the bottom's included, must arrive from the store. This
// pins the perf contract, not just the equivalence.
func TestRollupStoreScansOnce(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 4)
	cfg.P = 2
	m, err := cfg.validate()
	if err != nil {
		t.Fatal(err)
	}
	bounds, base, err := searchBounds(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base == nil {
		t.Fatal("searchBounds took no base scan with the roll-up store on")
	}
	e := newEvaluator(tbl, m, nil, cfg, bounds)
	if e.rollups == nil {
		t.Fatal("rollup store not enabled by default")
	}
	e.seedBase(base)
	if scans := e.rollups.rowScans.Load(); scans != 1 {
		t.Fatalf("seeding counted %d row scans, want 1", scans)
	}
	nodes := m.Lattice().AllNodes()
	for _, node := range nodes {
		if o := e.evalNode(node); o.err != nil {
			t.Fatal(o.err)
		}
	}
	if len(e.rollups.entries) != len(nodes) {
		t.Errorf("store holds %d entries, want %d", len(e.rollups.entries), len(nodes))
	}
	if scans := e.rollups.rowScans.Load(); scans != 1 {
		t.Errorf("rows scanned %d times, want 1 (the base scan only)", scans)
	}
	// Re-evaluating is served entirely from the store.
	for _, node := range nodes {
		if o := e.evalNode(node); o.err != nil {
			t.Fatal(o.err)
		}
	}
	if len(e.rollups.entries) != len(nodes) || e.rollups.rowScans.Load() != 1 {
		t.Error("re-evaluation grew the store or re-scanned rows")
	}
}
