package table

import "fmt"

// BuildCodeMap is the row oracle for dictionary-built code maps
// (RecodingMap): it derives the code translation from one column to a
// row-aligned column by walking every row, so that for every row r,
// Map(from.Code(r)) == to.Code(r). It errors when the columns disagree
// on length or when the relation is not functional — two rows sharing a
// source code but holding different target codes. Exported so the
// external differential tests of this directory can call it.
func BuildCodeMap(from, to Column) (*CodeMap, error) {
	if from == nil || to == nil {
		return nil, fmt.Errorf("table: code map requires two columns")
	}
	n := from.Len()
	if to.Len() != n {
		return nil, fmt.Errorf("table: code map columns have %d vs %d rows", n, to.Len())
	}
	var m *CodeMap
	if cr, ok := from.(codeRanger); ok {
		lo, hi, ok := cr.CodeRange()
		m = newCodeMap(lo, hi, ok)
	} else {
		m = newCodeMap(0, 0, false)
	}
	for r := 0; r < n; r++ {
		if err := m.set(from.Code(r), to.Code(r)); err != nil {
			return nil, fmt.Errorf("row %d: %w", r, err)
		}
	}
	return m, nil
}
