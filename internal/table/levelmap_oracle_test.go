package table_test

import (
	"fmt"
	"reflect"
	"testing"

	"psk/internal/dataset"
	"psk/internal/generalize"
	"psk/internal/hierarchy"
	"psk/internal/table"
)

// levelColumn returns attr at a hierarchy level as the search sees it:
// the source column at level 0 (ApplyQIs leaves it untouched), the
// cache's generalized column above.
func levelColumn(t *testing.T, c *generalize.Cache, attr string, level int) table.Column {
	t.Helper()
	var col table.Column
	var err error
	if level == 0 {
		col, err = c.Source().Column(attr)
	} else {
		col, err = c.Column(attr, level)
	}
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// checkLevelMaps compares every level map of attr with the row oracle
// BuildCodeMap over the row-aligned level columns: equal on every row's
// code, and deep-equal when exact is set (dictionaries without entries
// no row carries). The maps are all requested before any level column
// is built, so they cannot lean on one.
func checkLevelMaps(t *testing.T, name string, c *generalize.Cache, attr string, height int, exact bool) {
	t.Helper()
	maps := map[[2]int]*table.CodeMap{}
	for from := 0; from <= height; from++ {
		for to := from + 1; to <= height; to++ {
			cm, err := c.LevelMap(attr, from, to)
			if err != nil {
				t.Fatalf("%s: LevelMap(%s, %d, %d): %v", name, attr, from, to, err)
			}
			maps[[2]int{from, to}] = cm
		}
	}
	if b := c.Bytes(); b != 0 {
		t.Fatalf("%s: level maps of %s built %d bytes of columns", name, attr, b)
	}
	for pair, got := range maps {
		fromCol := levelColumn(t, c, attr, pair[0])
		want, err := table.BuildCodeMap(fromCol, levelColumn(t, c, attr, pair[1]))
		if err != nil {
			t.Fatalf("%s: row oracle %s %v: %v", name, attr, pair, err)
		}
		for r := 0; r < fromCol.Len(); r++ {
			g, gok := got.Map(fromCol.Code(r))
			w, wok := want.Map(fromCol.Code(r))
			if !gok || !wok || g != w {
				t.Fatalf("%s: %s %v row %d: LevelMap %d,%v; row oracle %d,%v", name, attr, pair, r, g, gok, w, wok)
			}
		}
		if exact && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s %v: LevelMap differs from the row oracle", name, attr, pair)
		}
	}
}

// TestLevelMapsMatchRowOracle: on the Adult shape, for every QI — the
// int Age included — and every level pair from < to, the dictionary
// level map equals the one derived by walking the rows of the two
// level columns.
func TestLevelMapsMatchRowOracle(t *testing.T) {
	hs, err := dataset.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	m, err := generalize.NewMasker(dataset.QIs(), hs)
	if err != nil {
		t.Fatal(err)
	}
	dims := m.Lattice().Dims()
	for _, seed := range []int64{1, 2, 3} {
		tbl, err := dataset.GenerateScaled(1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, attr := range dataset.QIs() {
			checkLevelMaps(t, fmt.Sprintf("seed %d", seed), m.NewCache(tbl), attr, dims[i]-1, true)
		}
	}
}

// TestLevelMapDeadEntries: a gathered table keeps its source's string
// dictionary, entries no row carries included. One of them fails to
// generalize: the level maps still succeed and match the row oracle,
// while the table whose row carries it fails both the map and the
// column.
func TestLevelMapDeadEntries(t *testing.T) {
	hs, err := dataset.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	qis := dataset.QIs()
	m, err := generalize.NewMasker(qis, hs)
	if err != nil {
		t.Fatal(err)
	}
	adult, err := dataset.GenerateScaled(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	marital, age := dataset.Schema().Index(dataset.MaritalStatus), dataset.Schema().Index(dataset.Age)
	rows := make([][]string, 0, 5001)
	for r := 0; r < 5000; r++ {
		vals, err := adult.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]string, len(vals))
		for i, v := range vals {
			row[i] = v.Str()
		}
		rows = append(rows, row)
	}
	bogus := append([]string(nil), rows[0]...)
	bogus[marital] = "Bogus"
	rows = append(rows, bogus)
	tbl, err := table.FromText(dataset.Schema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCache(tbl)
	if _, err := c.LevelMap(dataset.MaritalStatus, 0, 1); err == nil {
		t.Fatal("level map over a carried ungeneralizable value succeeded")
	}
	if _, err := c.LevelMap(dataset.MaritalStatus, 1, 2); err == nil {
		t.Fatal("composed level map over a carried ungeneralizable value succeeded")
	}
	if _, err := c.Column(dataset.MaritalStatus, 1); err == nil {
		t.Fatal("column over a carried ungeneralizable value succeeded")
	}

	// Drop the bogus row and every row of one age and one marital
	// status, so several entries of the shared dictionary go dead.
	var keep []int
	for r := 0; r < tbl.NumRows()-1; r++ {
		if rows[r][marital] != rows[1][marital] && rows[r][age] != rows[2][age] {
			keep = append(keep, r)
		}
	}
	gathered, err := tbl.Gather(keep)
	if err != nil {
		t.Fatal(err)
	}
	dims := m.Lattice().Dims()
	for i, attr := range qis {
		checkLevelMaps(t, "gathered", m.NewCache(gathered), attr, dims[i]-1, false)
	}
}

// crossing is a deliberately non-nested hierarchy: level 1 pairs a/b
// and c/d, level 2 pairs a/c and b/d, so no level-1 label determines a
// level-2 label.
type crossing struct{}

func (crossing) Attribute() string { return "X" }
func (crossing) Height() int       { return 2 }
func (crossing) LevelName(l int) string {
	return fmt.Sprintf("X%d", l)
}
func (crossing) Generalize(v string, level int) (string, error) {
	labels := map[string][2]string{"a": {"ab", "ac"}, "b": {"ab", "bd"}, "c": {"cd", "ac"}, "d": {"cd", "bd"}}
	l, ok := labels[v]
	switch {
	case level == 0:
		return v, nil
	case !ok || level > 2:
		return "", fmt.Errorf("crossing: no label for %q at level %d", v, level)
	}
	return l[level-1], nil
}

// TestLevelMapNonNested: a non-nested hierarchy still yields maps from
// the ground codes to each level, but its level-1 -> level-2 map is not
// a function — on the dictionary as on the rows.
func TestLevelMapNonNested(t *testing.T) {
	hs, err := hierarchy.NewSet(crossing{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := generalize.NewMasker([]string{"X"}, hs)
	if err != nil {
		t.Fatal(err)
	}
	sch := table.MustSchema(table.Field{Name: "X", Type: table.String})
	tbl, err := table.FromText(sch, [][]string{{"a"}, {"b"}, {"c"}, {"d"}, {"a"}})
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewCache(tbl)
	for _, to := range []int{1, 2} {
		if _, err := c.LevelMap("X", 0, to); err != nil {
			t.Fatalf("LevelMap(X, 0, %d): %v", to, err)
		}
	}
	if _, err := c.LevelMap("X", 1, 2); err == nil {
		t.Fatal("non-nested level map accepted")
	}
	if _, err := table.BuildCodeMap(levelColumn(t, c, "X", 1), levelColumn(t, c, "X", 2)); err == nil {
		t.Fatal("row oracle accepted the non-nested pair")
	}
}
