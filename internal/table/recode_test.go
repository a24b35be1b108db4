package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// bucketFn maps a value to the bucket of width w its numeric or
// trailing-digit key falls in; buckets of width 2w are unions of
// buckets of width w, so bucketFn(w) -> bucketFn(2w) is a nested
// recoding of any column.
func bucketFn(w int) func(Value) (string, error) {
	return func(v Value) (string, error) {
		s := v.Str()
		n := 0
		for _, r := range s {
			if r >= '0' && r <= '9' {
				n = 10*n + int(r-'0')
			}
		}
		if strings.HasPrefix(s, "-") {
			n += 100
		}
		return fmt.Sprintf("b%d", n/w), nil
	}
}

// sameOnRows checks got and want translate every row's code in col
// identically.
func sameOnRows(t *testing.T, name string, col Column, got, want *CodeMap) {
	t.Helper()
	for r := 0; r < col.Len(); r++ {
		g, gok := got.Map(col.Code(r))
		w, wok := want.Map(col.Code(r))
		if g != w || gok != wok || !gok {
			t.Fatalf("%s: row %d code %d: dictionary map %d,%v; row oracle %d,%v", name, r, col.Code(r), g, gok, w, wok)
		}
	}
}

// TestRecodingMapMatchesRowOracle: for every dictionary-bearing column
// type, the dictionary-built maps source -> fine, fine -> coarse and
// source -> coarse equal the row oracle BuildCodeMap over the
// row-aligned recoded columns — deep-equal on fresh tables, equal on
// every row's code on gathered ones (whose dictionaries keep entries
// no row carries, which only the dictionary map translates). The
// specializing direction is not a function either way.
func TestRecodingMapMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for round := 0; round < 6; round++ {
		full := randomScanMicrodata(t, rng, 1+rng.Intn(900), round%3 == 2)
		var rows []int
		for r := 0; r < full.NumRows(); r++ {
			if rng.Intn(4) == 0 {
				rows = append(rows, r)
			}
		}
		gathered, err := full.Gather(rows)
		if err != nil {
			t.Fatal(err)
		}
		for kind, tbl := range map[string]*Table{"fresh": full, "gathered": gathered} {
			for _, attr := range []string{"A", "B", "S1", "S2", "S3"} {
				name := fmt.Sprintf("round %d %s %s", round, kind, attr)
				src, err := tbl.Column(attr)
				if err != nil {
					t.Fatal(err)
				}
				fine, err := tbl.Recode(attr, bucketFn(2))
				if err != nil {
					t.Fatal(err)
				}
				coarse, err := tbl.Recode(attr, bucketFn(4))
				if err != nil {
					t.Fatal(err)
				}
				fineCol, err := fine.Column()
				if err != nil {
					t.Fatal(err)
				}
				coarseCol, err := coarse.Column()
				if err != nil {
					t.Fatal(err)
				}
				for _, pair := range []struct {
					label          string
					from, to       *Recoding
					fromCol, toCol Column
				}{
					{"source->fine", nil, fine, src, fineCol},
					{"source->coarse", nil, coarse, src, coarseCol},
					{"fine->coarse", fine, coarse, fineCol, coarseCol},
				} {
					got, err := RecodingMap(pair.from, pair.to)
					if err != nil {
						t.Fatalf("%s %s: %v", name, pair.label, err)
					}
					want, err := BuildCodeMap(pair.fromCol, pair.toCol)
					if err != nil {
						t.Fatal(err)
					}
					sameOnRows(t, name+" "+pair.label, pair.fromCol, got, want)
					if kind == "fresh" && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: dictionary map %+v, row oracle %+v", name, pair.label, got, want)
					}
				}
				_, rowErr := BuildCodeMap(coarseCol, fineCol)
				if _, err := RecodingMap(coarse, fine); (err == nil) != (rowErr == nil) {
					t.Fatalf("%s coarse->fine: dictionary error %v, row oracle error %v", name, err, rowErr)
				}
				if m, err := RecodingMap(nil, nil); m != nil || err != nil {
					t.Fatalf("identity map = %v, %v", m, err)
				}
			}
		}
	}
}

// TestRecodingDeadEntryErrors: a mapping function failing on a
// dictionary entry no row carries fails neither the column nor any
// code map; failing on an entry a row carries fails both, with the
// same error — the first carrying row's.
func TestRecodingDeadEntryErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	tbl := randomScanMicrodata(t, rng, 600, false)
	col, err := tbl.Column("A")
	if err != nil {
		t.Fatal(err)
	}
	sub := tbl.Filter(func(r int) bool { return col.Value(r).Str() != "a1" })
	failOn := func(bad string) func(Value) (string, error) {
		return func(v Value) (string, error) {
			if v.Str() == bad {
				return "", fmt.Errorf("no mapping")
			}
			return "g:" + v.Str(), nil
		}
	}
	ok, err := sub.Recode("A", bucketFn(1))
	if err != nil {
		t.Fatal(err)
	}
	dead, err := sub.Recode("A", failOn("a1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.Column(); err != nil {
		t.Fatalf("dead entry failed the column: %v", err)
	}
	for _, pair := range [][2]*Recoding{{nil, dead}, {dead, nil}, {ok, dead}, {dead, ok}} {
		if _, err := RecodingMap(pair[0], pair[1]); err != nil {
			t.Fatalf("dead entry failed a code map: %v", err)
		}
	}
	live, err := sub.Recode("A", failOn("a2"))
	if err != nil {
		t.Fatal(err)
	}
	_, colErr := live.Column()
	if colErr == nil {
		t.Fatal("live failing entry built a column")
	}
	for _, pair := range [][2]*Recoding{{nil, live}, {live, nil}, {ok, live}, {live, ok}} {
		if _, err := RecodingMap(pair[0], pair[1]); err == nil || err.Error() != colErr.Error() {
			t.Fatalf("live failing entry: code map error %v, column error %v", err, colErr)
		}
	}
	other, err := tbl.Recode("A", bucketFn(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RecodingMap(ok, other); err == nil {
		t.Fatal("code map across different columns accepted")
	}
}

// TestCodeCountsMatchValueCounts: the dense per-entry counts are the
// map-based value counts, plus zeros for dictionary entries no row
// carries.
func TestCodeCountsMatchValueCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tbl := randomScanMicrodata(t, rng, 700, true)
	sub := tbl.Filter(func(r int) bool { return r%3 == 0 })
	for _, tb := range []*Table{tbl, sub} {
		for _, attr := range []string{"A", "B", "S2", "S3"} {
			counts, err := tb.CodeCounts(attr)
			if err != nil {
				t.Fatal(err)
			}
			vc, err := tb.ValueCounts(attr)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]int{}
			for _, c := range vc {
				want[c.Count]++
			}
			got := map[int]int{}
			for _, c := range counts {
				if c > 0 {
					got[c]++
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: count multiset %v, want %v", attr, got, want)
			}
		}
	}
	if _, err := tbl.CodeCounts("nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
}
