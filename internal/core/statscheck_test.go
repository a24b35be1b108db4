package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"psk/internal/table"
)

var statIllnesses = []string{"Colon Cancer", "Lung Cancer", "Stomach Cancer", "Flu", "HIV", "Diabetes"}

// randomStatsTable builds an n-row table with two QI columns and two
// confidential columns (Illness drawn from the extended-check fixture's
// domain so the same table serves the hierarchy tests).
func randomStatsTable(t testing.TB, rng *rand.Rand, n int) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Zip", Type: table.String},
		table.Field{Name: "Sex", Type: table.String},
		table.Field{Name: "Illness", Type: table.String},
		table.Field{Name: "Income", Type: table.Int},
	)
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("4%d", rng.Intn(4)),
			[]string{"M", "F"}[rng.Intn(2)],
			statIllnesses[rng.Intn(len(statIllnesses))],
			fmt.Sprintf("%d", 10*rng.Intn(4)),
		}
	}
	tbl, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestStatsChecksMatchTableChecks: every stats-based verdict must agree
// with its table-based counterpart on randomized tables, across p/k/l
// settings and worker counts.
func TestStatsChecksMatchTableChecks(t *testing.T) {
	qis := []string{"Zip", "Sex"}
	conf := []string{"Illness", "Income"}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := randomStatsTable(t, rng, 20+rng.Intn(200))
		s, err := tbl.GroupStats(qis, conf, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}

		for _, k := range []int{2, 3, 5} {
			wantK, err := IsKAnonymous(tbl, qis, k)
			if err != nil {
				t.Fatal(err)
			}
			gotK, err := IsKAnonymousStats(s, k)
			if err != nil || gotK != wantK {
				t.Errorf("seed %d k=%d: IsKAnonymousStats = %v, %v; want %v", seed, k, gotK, err, wantK)
			}
			wantV, err := TuplesViolatingK(tbl, qis, k)
			if err != nil {
				t.Fatal(err)
			}
			gotV, err := TuplesViolatingKStats(s, k)
			if err != nil || gotV != wantV {
				t.Errorf("seed %d k=%d: TuplesViolatingKStats = %d, %v; want %d", seed, k, gotV, err, wantV)
			}
			for p := 1; p <= k && p <= 4; p++ {
				wantB, err := CheckBasic(tbl, qis, conf, p, k)
				if err != nil {
					t.Fatal(err)
				}
				gotB, err := CheckBasicStats(s, p, k)
				if err != nil || gotB != wantB {
					t.Errorf("seed %d p=%d k=%d: CheckBasicStats = %v, %v; want %v", seed, p, k, gotB, err, wantB)
				}
				bounds, err := ComputeBounds(tbl, conf, p)
				if err != nil {
					t.Fatal(err)
				}
				wantR, err := CheckWithBounds(tbl, qis, conf, p, k, bounds)
				if err != nil {
					t.Fatal(err)
				}
				gotR, err := CheckStatsWithBounds(s, p, k, bounds)
				if err != nil || gotR != wantR {
					t.Errorf("seed %d p=%d k=%d: CheckStatsWithBounds = %+v, %v; want %+v", seed, p, k, gotR, err, wantR)
				}
				for _, alpha := range []float64{0.5, 0.8, 1.0} {
					wantA, err := CheckPAlpha(tbl, qis, conf, p, k, alpha)
					if err != nil {
						t.Fatal(err)
					}
					gotA, err := CheckPAlphaStats(s, p, k, alpha)
					if err != nil || gotA != wantA {
						t.Errorf("seed %d p=%d k=%d alpha=%g: CheckPAlphaStats = %v, %v; want %v",
							seed, p, k, alpha, gotA, err, wantA)
					}
				}
			}
		}

		wantSens, err := Sensitivity(tbl, qis, conf)
		if err != nil {
			t.Fatal(err)
		}
		gotSens, err := SensitivityStats(s)
		if err != nil || gotSens != wantSens {
			t.Errorf("seed %d: SensitivityStats = %d, %v; want %d", seed, gotSens, err, wantSens)
		}
		for _, p := range []int{2, 3} {
			wantD, err := AttributeDisclosures(tbl, qis, conf, p)
			if err != nil {
				t.Fatal(err)
			}
			gotD, err := AttributeDisclosuresStats(s, p)
			if err != nil || gotD != wantD {
				t.Errorf("seed %d p=%d: AttributeDisclosuresStats = %d, %v; want %d", seed, p, gotD, err, wantD)
			}
		}

		for ci, attr := range conf {
			for _, l := range []int{1, 2, 3} {
				wantL, err := IsDistinctLDiverse(tbl, qis, attr, l)
				if err != nil {
					t.Fatal(err)
				}
				gotL, err := DistinctLDiverseStats(s, ci, l)
				if err != nil || gotL != wantL {
					t.Errorf("seed %d %s l=%d: DistinctLDiverseStats = %v, %v; want %v", seed, attr, l, gotL, err, wantL)
				}
				wantE, err := IsEntropyLDiverse(tbl, qis, attr, l)
				if err != nil {
					t.Fatal(err)
				}
				gotE, err := EntropyLDiverseStats(s, ci, l)
				if err != nil || gotE != wantE {
					t.Errorf("seed %d %s l=%d: EntropyLDiverseStats = %v, %v; want %v", seed, attr, l, gotE, err, wantE)
				}
			}
			wantT, err := TCloseness(tbl, qis, attr)
			if err != nil {
				t.Fatal(err)
			}
			gotT, err := TClosenessStats(s, ci)
			if err != nil || math.Abs(gotT-wantT) > 1e-12 {
				t.Errorf("seed %d %s: TClosenessStats = %g, %v; want %g", seed, attr, gotT, err, wantT)
			}
		}
	}
}

// TestCheckExtendedStatsMatches: the code-map-based extended check must
// agree with the hierarchy-walking table check.
func TestCheckExtendedStatsMatches(t *testing.T) {
	h := illnessHierarchy(t)
	qis := []string{"Zip", "Sex"}
	cfg := ExtendedConfig{Hierarchy: h, MaxLevel: 1}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		tbl := randomStatsTable(t, rng, 20+rng.Intn(120))
		s, err := tbl.GroupStats(qis, []string{"Illness"}, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		// Level maps: ground codes (level 0, identity) and the code map
		// into each generalized confidential column.
		levelMaps := []*table.CodeMap{nil}
		base, err := tbl.Column("Illness")
		if err != nil {
			t.Fatal(err)
		}
		for lvl := 1; lvl <= cfg.MaxLevel; lvl++ {
			gen, err := tbl.MapColumn("Illness", func(v table.Value) (string, error) {
				return h.Generalize(v.Str(), lvl)
			})
			if err != nil {
				t.Fatal(err)
			}
			genCol, err := gen.Column("Illness")
			if err != nil {
				t.Fatal(err)
			}
			levelMaps = append(levelMaps, rowCodeMap(t, base, genCol))
		}
		for _, k := range []int{2, 3} {
			for p := 1; p <= k; p++ {
				want, err := CheckExtended(tbl, qis, "Illness", p, k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CheckExtendedStats(s, 0, p, k, cfg.MaxLevel, levelMaps)
				if err != nil || got != want {
					t.Errorf("seed %d p=%d k=%d: CheckExtendedStats = %v, %v; want %v", seed, p, k, got, err, want)
				}
			}
		}
	}
}

// rowCodeMap is the row oracle for a level map: it pairs every row's
// code in from with the same row's code in to.
func rowCodeMap(t *testing.T, from, to table.Column) *table.CodeMap {
	t.Helper()
	m := make(map[int]int)
	for r := 0; r < from.Len(); r++ {
		if c, ok := m[from.Code(r)]; ok && c != to.Code(r) {
			t.Fatalf("row %d: code %d maps to both %d and %d", r, from.Code(r), c, to.Code(r))
		}
		m[from.Code(r)] = to.Code(r)
	}
	return table.NewSparseCodeMap(m)
}

// TestStatsCheckValidation pins the argument validation of the stats
// paths.
func TestStatsCheckValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := randomStatsTable(t, rng, 30)
	s, err := tbl.GroupStats([]string{"Zip"}, []string{"Illness"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IsKAnonymousStats(s, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TuplesViolatingKStats(s, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := CheckBasicStats(s, 3, 2); err == nil {
		t.Error("p > k accepted")
	}
	if _, err := CheckStatsWithBounds(s, 0, 2, Bounds{}); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := CheckPAlphaStats(s, 2, 3, 1.5); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := DistinctLDiverseStats(s, 5, 2); err == nil {
		t.Error("conf index out of range accepted")
	}
	if _, err := EntropyLDiverseStats(s, -1, 2); err == nil {
		t.Error("conf index out of range accepted")
	}
	if _, err := TClosenessStats(s, 9); err == nil {
		t.Error("conf index out of range accepted")
	}
	if _, err := CheckExtendedStats(s, 0, 2, 2, 1, []*table.CodeMap{nil}); err == nil {
		t.Error("short level-map vector accepted")
	}
	if _, err := CheckExtendedStats(s, 0, 2, 2, -1, nil); err == nil {
		t.Error("negative maxLevel accepted")
	}
	empty := &table.GroupStats{}
	if _, err := CheckBasicStats(empty, 2, 2); err == nil {
		t.Error("no confidential attributes accepted")
	}
	if _, err := SensitivityStats(empty); err == nil {
		t.Error("no confidential attributes accepted")
	}
	if _, err := AttributeDisclosuresStats(empty, 2); err == nil {
		t.Error("no confidential attributes accepted")
	}
}
