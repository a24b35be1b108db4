package table

import (
	"errors"
	"fmt"
)

// dictPlan is the dictionary view of a column: its rows project onto
// dense entry ids in [0, width) — extracted a block at a time by read —
// code translates an id back to the value the per-row Code method
// reports, and value to the entry itself. String and float columns use
// their dictionary codes as ids; an int column uses the ranks of its
// distinct values (intDict), so its ids and codes differ. Ids ascend
// with codes in every case.
type dictPlan struct {
	width int
	read  func(dst []int32, lo, hi int) []int32
	code  func(id int) int
	value func(id int) Value
}

// eachBlock calls fn with the entry ids of an n-row column's rows,
// a block at a time: ids holds rows [lo, lo+len(ids)). It stops once
// fn returns false.
func (p dictPlan) eachBlock(n int, fn func(lo int, ids []int32) bool) {
	ids := make([]int32, 0, blockRows)
	for lo := 0; lo < n; lo += blockRows {
		ids = p.read(ids[:0], lo, min(lo+blockRows, n))
		if !fn(lo, ids) {
			return
		}
	}
}

// errNoDict marks a column type without a dictionary view.
var errNoDict = errors.New("column has no dictionary")

// dictPlanFor builds the dictionary view of a column, or reports false
// for column types without a dictionary.
func dictPlanFor(c Column) (dictPlan, bool) {
	switch col := c.(type) {
	case *stringColumn:
		return dictPlan{
			width: len(col.dict),
			read:  col.codes32,
			code:  func(id int) int { return id },
			value: func(id int) Value { return SV(col.dict[id]) },
		}, true
	case *floatColumn:
		return dictPlan{
			width: len(col.dict),
			read: func(dst []int32, lo, hi int) []int32 {
				return append(dst, col.codes[lo:hi]...)
			},
			code:  func(id int) int { return id },
			value: func(id int) Value { return FV(col.dict[id]) },
		}, true
	case *intColumn:
		d := col.intDict()
		return dictPlan{
			width: len(d.vals),
			read: func(dst []int32, lo, hi int) []int32 {
				for _, v := range col.vals[lo:hi] {
					dst = append(dst, d.id(v))
				}
				return dst
			},
			code:  func(id int) int { return int(d.vals[id]) },
			value: func(id int) Value { return IV(d.vals[id]) },
		}, true
	}
	return dictPlan{}, false
}

// Recoding is the translation of one column through a value mapping
// function, computed over the column's dictionary: fn runs once per
// dictionary entry, and the result assigns each entry its code in the
// string column the mapping builds. Full-domain recoding makes a
// generalization level exactly such a function of the dictionary, so
// everything derived from one Recoding — the recoded column (Column)
// and the code translations between recodings (RecodingMap) — shares
// one code assignment and cannot drift apart.
//
// A dictionary may hold entries no row carries (Gather shares its
// source's dictionary). fn failing on such an entry is not an error;
// failing on an entry some row carries is, and surfaces from whichever
// derivation reads that row.
type Recoding struct {
	src  Column
	plan dictPlan
	// remap is the entry id -> target code table; -1 where fn failed.
	remap []int32
	// errs holds fn's error per entry id; nil when fn never failed.
	errs []error
	// dict is the target dictionary in code order.
	dict  []string
	index map[string]int32
}

// Recode translates the named column's dictionary through fn. Entries
// are visited in id order, so target codes are assigned in order of
// first appearance in the source dictionary — the assignment
// RemappedColumn has always produced.
func (t *Table) Recode(name string, fn func(Value) (string, error)) (*Recoding, error) {
	idx := t.schema.Index(name)
	if idx < 0 {
		return nil, fmt.Errorf("table: %w: %q", ErrNoColumn, name)
	}
	src := t.cols[idx]
	plan, ok := dictPlanFor(src)
	if !ok {
		return nil, fmt.Errorf("table: recode column %q: %w", name, errNoDict)
	}
	dst := newStringColumn()
	r := &Recoding{src: src, plan: plan, remap: make([]int32, plan.width)}
	for id := range r.remap {
		v := plan.value(id)
		out, err := fn(v)
		if err != nil {
			if r.errs == nil {
				r.errs = make([]error, plan.width)
			}
			r.errs[id] = fmt.Errorf("table: map column %q value %q: %w", name, v.Str(), err)
			r.remap[id] = -1
			continue
		}
		r.remap[id] = dst.intern(out)
	}
	r.dict, r.index = dst.dict, dst.index
	return r, nil
}

// Column builds the recoded column in one pass over the rows, reading
// entry ids a block at a time. It errors with the first row, in row
// order, that carries an entry fn failed on.
func (r *Recoding) Column() (Column, error) {
	n := r.src.Len()
	dst := &stringColumn{dict: r.dict, index: r.index, codes: make([]int32, 0, n)}
	// The dictionary stays referenced by the Recoding, so an append to
	// the built column must copy it first.
	dst.dictShared.Store(true)
	var err error
	r.plan.eachBlock(n, func(_ int, ids []int32) bool {
		for _, id := range ids {
			m := r.remap[id]
			if m < 0 {
				err = r.errs[id]
				return false
			}
			dst.codes = append(dst.codes, m)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	dst.freeze()
	return dst, nil
}

// RemappedColumn is the columnar fast path of MappedColumn for pure
// fn: Recode, then Column — fn runs once per dictionary entry and the
// per-row work is two array lookups. The result column holds the same
// values row-for-row as MappedColumn's; only the (externally
// invisible) dictionary order may differ, because entries are visited
// in dictionary order rather than row order. Column types without a
// dictionary fall back to MappedColumn.
func (t *Table) RemappedColumn(name string, fn func(Value) (string, error)) (Column, error) {
	r, err := t.Recode(name, fn)
	if errors.Is(err, errNoDict) {
		return t.MappedColumn(name, fn)
	}
	if err != nil {
		return nil, err
	}
	return r.Column()
}

// RecodingMap returns the code translation from one recoding of a
// column to another recoding of the same column; a nil Recoding stands
// for the column's own codes, so RecodingMap(nil, r) translates the
// source column's codes into r's. The map is built over dictionary
// entries — O(cardinality), no row is read — and equals the map a walk
// over the rows of the two recoded columns would derive, plus entries
// for dictionary values no row carries.
//
// It errors when a row carries an entry either mapping function failed
// on, and when the relation is not functional over the entries rows
// carry — two of them share a from code but not a to code, so the
// recodings are not nested refinements of each other. Only these
// error checks read rows, and only once some entry failed or two
// entries conflicted.
func RecodingMap(from, to *Recoding) (*CodeMap, error) {
	if from == nil && to == nil {
		return nil, nil
	}
	base := from
	if base == nil {
		base = to
	}
	if from != nil && to != nil && from.src != to.src {
		return nil, fmt.Errorf("table: code map between recodings of different columns")
	}
	m, err := mapEntries(from, to, base, nil)
	if err == nil {
		return m, nil
	}
	// An entry failed to map, or two entries conflict. Either is an
	// error only if rows carry the entries involved — a shared
	// dictionary may hold values no row does — so this path reads the
	// rows. As in Column, the first carrying row's failure wins.
	first := base.firstRows()
	failedAt := -1
	for id, row := range first {
		if row >= 0 && entryErr(from, to, id) != nil && (failedAt < 0 || row < first[failedAt]) {
			failedAt = id
		}
	}
	if failedAt >= 0 {
		return nil, entryErr(from, to, failedAt)
	}
	return mapEntries(from, to, base, first)
}

// entryErr returns the mapping error of entry id under from, else under
// to; a nil Recoding (the column's own codes) never fails.
func entryErr(from, to *Recoding, id int) error {
	for _, r := range []*Recoding{from, to} {
		if r != nil && r.errs != nil && r.errs[id] != nil {
			return r.errs[id]
		}
	}
	return nil
}

// mapEntries builds the from -> to code map over the entries some row
// carries (first[id] >= 0), or over every entry when first is nil.
func mapEntries(from, to, base *Recoding, first []int) (*CodeMap, error) {
	codeOf := func(r *Recoding, id int) int {
		if r == nil {
			return base.plan.code(id)
		}
		return int(r.remap[id])
	}
	width := base.plan.width
	var m *CodeMap
	switch {
	case width == 0:
		m = newCodeMap(0, 0, false)
	case from == nil:
		m = newCodeMap(base.plan.code(0), base.plan.code(width-1), true)
	default:
		m = newCodeMap(0, len(from.dict)-1, len(from.dict) > 0)
	}
	for id := 0; id < width; id++ {
		if first != nil && first[id] < 0 {
			continue
		}
		if err := entryErr(from, to, id); err != nil {
			return nil, err
		}
		if err := m.set(codeOf(from, id), codeOf(to, id)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// firstRows returns, per dictionary entry, the first row carrying it,
// or -1 for entries no row carries.
func (r *Recoding) firstRows() []int {
	first := make([]int, r.plan.width)
	for i := range first {
		first[i] = -1
	}
	r.plan.eachBlock(r.src.Len(), func(lo int, ids []int32) bool {
		for j, id := range ids {
			if first[id] < 0 {
				first[id] = lo + j
			}
		}
		return true
	})
	return first
}

// CodeCounts returns how many rows carry each entry of the named
// column's dictionary, counted a block at a time into a dense per-entry
// counter; entries no row carries (a Gather's shared dictionary) count
// 0. A column without a dictionary is counted by code in a map. The
// counts are in dictionary order, which carries no meaning of its own:
// callers use them as a multiset, e.g. a frequency set.
func (t *Table) CodeCounts(name string) ([]int, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	n := c.Len()
	plan, ok := dictPlanFor(c)
	if !ok {
		byCode := make(map[int]int)
		for i := 0; i < n; i++ {
			byCode[c.Code(i)]++
		}
		out := make([]int, 0, len(byCode))
		for _, count := range byCode {
			out = append(out, count)
		}
		return out, nil
	}
	counts := make([]int, plan.width)
	plan.eachBlock(n, func(_ int, ids []int32) bool {
		for _, id := range ids {
			counts[id]++
		}
		return true
	})
	return counts, nil
}
