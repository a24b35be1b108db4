package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"psk/internal/table"
)

// oracleBounds is the row-at-a-time reference for ComputeBounds: the
// distinct count per confidential attribute from a map of row codes
// (MaxP), the frequency sets from map-based ValueCounts, and the
// cumulative-frequency formula spelled out as the paper states it.
func oracleBounds(t *table.Table, confidential []string, p int) (Bounds, error) {
	if len(confidential) == 0 {
		return Bounds{}, fmt.Errorf("core: no confidential attributes")
	}
	maxP := -1
	var cfs [][]int
	for _, attr := range confidential {
		s, err := t.DistinctCount(attr)
		if err != nil {
			return Bounds{}, err
		}
		if maxP == -1 || s < maxP {
			maxP = s
		}
		vc, err := t.ValueCounts(attr)
		if err != nil {
			return Bounds{}, err
		}
		f := make([]int, len(vc))
		for i, c := range vc {
			f[i] = c.Count
		}
		cfs = append(cfs, Cumulative(f))
	}
	b := Bounds{MaxP: maxP, P: p}
	if p < 1 {
		return Bounds{}, fmt.Errorf("core: p must be >= 1, got %d", p)
	}
	if p > maxP {
		return b, nil
	}
	n := t.NumRows()
	if p == 1 {
		b.MaxGroups = n
		return b, nil
	}
	b.MaxGroups = math.MaxInt
	for i := 1; i <= p-1; i++ {
		cf := 0
		for _, c := range cfs {
			if c[p-i-1] > cf {
				cf = c[p-i-1]
			}
		}
		if v := (n - cf) / i; v < b.MaxGroups {
			b.MaxGroups = v
		}
	}
	if b.MaxGroups < 0 {
		b.MaxGroups = 0
	}
	return b, nil
}

// boundsTable builds an n-row table with two QI columns and one
// confidential column of each type, with cardinalities drawn per table
// so some attributes have a single value and some many.
func boundsTable(t *testing.T, rng *rand.Rand, n int) *table.Table {
	t.Helper()
	sch := table.MustSchema(
		table.Field{Name: "Q1", Type: table.String},
		table.Field{Name: "Q2", Type: table.Int},
		table.Field{Name: "CS", Type: table.String},
		table.Field{Name: "CI", Type: table.Int},
		table.Field{Name: "CF", Type: table.Float},
	)
	cs, ci, cf := 1+rng.Intn(8), 1+rng.Intn(12), 1+rng.Intn(6)
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("q%d", rng.Intn(3)),
			fmt.Sprintf("%d", rng.Intn(4)),
			fmt.Sprintf("s%d", rng.Intn(cs)),
			fmt.Sprintf("%d", 1000*rng.Intn(ci)-500),
			fmt.Sprintf("%g", 0.25*float64(rng.Intn(cf))),
		}
	}
	tbl, err := table.FromText(sch, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestBoundsProperty: the row oracle, ComputeBounds (dense per-entry
// counters) and BoundsFromStats over the table's group statistics must
// agree on every table and every p from 1 to maxP+1 — on random tables
// and on gathered ones, whose string dictionaries keep entries no row
// carries. MaxP, MaxGroups and CFMax must agree with the oracle too.
func TestBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	confSets := [][]string{{"CS"}, {"CI"}, {"CF"}, {"CS", "CI", "CF"}, {"CF", "CS"}}
	for round := 0; round < 30; round++ {
		tbl := boundsTable(t, rng, rng.Intn(150))
		tables := map[string]*table.Table{"random": tbl}
		var rows []int
		for r := 0; r < tbl.NumRows(); r++ {
			if rng.Intn(3) == 0 {
				rows = append(rows, r)
			}
		}
		gathered, err := tbl.Gather(rows)
		if err != nil {
			t.Fatal(err)
		}
		tables["gathered"] = gathered
		for kind, tb := range tables {
			for _, conf := range confSets {
				stats, err := tb.GroupStats([]string{"Q1", "Q2"}, conf, 1+rng.Intn(3))
				if err != nil {
					t.Fatal(err)
				}
				maxP, err := MaxP(tb, conf)
				if err != nil {
					t.Fatal(err)
				}
				for p := 1; p <= maxP+1; p++ {
					name := fmt.Sprintf("round %d %s conf=%v p=%d", round, kind, conf, p)
					want, err := oracleBounds(tb, conf, p)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ComputeBounds(tb, conf, p)
					if err != nil || got != want {
						t.Fatalf("%s: ComputeBounds = %+v, %v; oracle %+v", name, got, err, want)
					}
					fromStats, err := BoundsFromStats(stats, p)
					if err != nil || fromStats != want {
						t.Fatalf("%s: BoundsFromStats = %+v, %v; oracle %+v", name, fromStats, err, want)
					}
					if maxP != want.MaxP {
						t.Fatalf("%s: MaxP = %d, oracle %d", name, maxP, want.MaxP)
					}
					if p <= maxP {
						mg, err := MaxGroups(tb, conf, p)
						if err != nil || mg != want.MaxGroups {
							t.Fatalf("%s: MaxGroups = %d, %v; oracle %d", name, mg, err, want.MaxGroups)
						}
					}
				}
				cf, err := CFMax(tb, conf)
				if err != nil {
					t.Fatal(err)
				}
				if len(cf) != maxP {
					t.Fatalf("round %d %s conf=%v: CFMax has %d entries, maxP %d", round, kind, conf, len(cf), maxP)
				}
			}
		}
	}
	if _, err := ComputeBounds(boundsTable(t, rng, 5), nil, 2); err == nil {
		t.Fatal("no confidential attributes accepted")
	}
	if _, err := ComputeBounds(boundsTable(t, rng, 5), []string{"CS"}, 0); err == nil {
		t.Fatal("p = 0 accepted")
	}
}
