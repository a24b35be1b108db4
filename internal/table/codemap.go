package table

import (
	"fmt"
	"math"
)

// unmappedCode marks dense CodeMap slots no source code was observed
// for. Columns never produce it as a real code (it would require an
// int64 column holding math.MinInt, which Code would truncate anyway).
const unmappedCode = math.MinInt

// denseCodeMapSpan bounds the source code range a CodeMap will cover
// with a flat slice; wider ranges fall back to a hash map so sparse
// numeric columns do not explode memory.
const denseCodeMapSpan = 1 << 20

// CodeMap translates the codes of one column into the codes of a
// row-aligned column over the same rows. The roll-up layer uses it to
// move a QI-group key from one hierarchy level to a more generalized
// one without rescanning rows: full-domain recoding guarantees the
// translation is a function (rows that agree at the finer level agree
// at every coarser level).
//
// A nil *CodeMap is the identity translation; Map on it returns the
// code unchanged.
type CodeMap struct {
	lo     int
	dense  []int
	sparse map[int]int
}

// Map translates a source code. ok is false when the code was never
// observed in the source column the map was built from.
func (m *CodeMap) Map(code int) (int, bool) {
	if m == nil {
		return code, true
	}
	if m.dense != nil {
		i := code - m.lo
		if i < 0 || i >= len(m.dense) || m.dense[i] == unmappedCode {
			return 0, false
		}
		return m.dense[i], true
	}
	v, ok := m.sparse[code]
	return v, ok
}

// Len reports the number of distinct source codes the map covers.
func (m *CodeMap) Len() int {
	if m == nil {
		return 0
	}
	if m.dense != nil {
		n := 0
		for _, v := range m.dense {
			if v != unmappedCode {
				n++
			}
		}
		return n
	}
	return len(m.sparse)
}

// NewSparseCodeMap builds a CodeMap from an explicit translation table
// (copied, so the caller's map stays independent). The incremental
// session uses it to roll base-level group statistics up to its own
// published-node code space, which no column pair describes.
func NewSparseCodeMap(m map[int]int) *CodeMap {
	sp := make(map[int]int, len(m))
	for k, v := range m {
		sp[k] = v
	}
	return &CodeMap{sparse: sp}
}

// newCodeMap returns an empty CodeMap for source codes in [lo, hi]:
// a flat slice when the range is known and narrow, a hash map
// otherwise, so sparse numeric columns do not explode memory.
func newCodeMap(lo, hi int, ranged bool) *CodeMap {
	if ranged && hi >= lo && hi-lo < denseCodeMapSpan {
		m := &CodeMap{lo: lo, dense: make([]int, hi-lo+1)}
		for i := range m.dense {
			m.dense[i] = unmappedCode
		}
		return m
	}
	return &CodeMap{sparse: make(map[int]int)}
}

// set records that source code fc translates to tc. It errors when fc
// already translates to a different code — the relation is not a
// function — or lies outside a dense map's declared range.
func (m *CodeMap) set(fc, tc int) error {
	var cur int
	if m.dense != nil {
		i := fc - m.lo
		if i < 0 || i >= len(m.dense) {
			return fmt.Errorf("table: code map: code %d outside declared range", fc)
		}
		if cur = m.dense[i]; cur == unmappedCode {
			m.dense[i] = tc
			return nil
		}
	} else {
		var ok bool
		if cur, ok = m.sparse[fc]; !ok {
			m.sparse[fc] = tc
			return nil
		}
	}
	if cur != tc {
		return fmt.Errorf("table: code map not functional: code %d maps to both %d and %d", fc, cur, tc)
	}
	return nil
}
