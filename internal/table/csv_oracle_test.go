package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// oracleReadCSV is the reference reader for ReadCSV: encoding/csv with
// TrimLeadingSpace, every cell passed through strings.TrimSpace and
// appended row by row through a Builder. It differs from ReadCSV only
// in its error texts; which inputs fail, and the tables built from the
// rest, must match.
func oracleReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: read csv header: %w", err)
	}
	for i := range header {
		header[i] = strings.TrimSpace(header[i])
	}

	var sch Schema
	// perm[i] is the schema position of csv column i.
	perm := make([]int, len(header))
	if schema == nil {
		fields := make([]Field, len(header))
		for i, h := range header {
			fields[i] = Field{Name: h, Type: String}
			perm[i] = i
		}
		sch, err = NewSchema(fields...)
		if err != nil {
			return nil, err
		}
	} else {
		sch = *schema
		if len(header) != sch.Len() {
			return nil, fmt.Errorf("table: csv has %d columns, schema has %d", len(header), sch.Len())
		}
		seen := make([]bool, sch.Len())
		for i, h := range header {
			pos := sch.Index(h)
			if pos < 0 {
				return nil, fmt.Errorf("table: csv column %q not in schema", h)
			}
			if seen[pos] {
				return nil, fmt.Errorf("table: csv column %q appears twice", h)
			}
			seen[pos] = true
			perm[i] = pos
		}
	}

	b, err := NewBuilder(sch)
	if err != nil {
		return nil, err
	}
	row := make([]string, sch.Len())
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: read csv line %d: %w", line, err)
		}
		for i, cell := range rec {
			row[perm[i]] = strings.TrimSpace(cell)
		}
		b.AppendText(row...)
	}
	return b.Build()
}

// oracleWriteCSV is the reference writer for WriteCSV: every cell
// rendered with Value.Str and written through encoding/csv.
func oracleWriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.schema.Names()); err != nil {
		return fmt.Errorf("table: write csv header: %w", err)
	}
	rec := make([]string, len(t.cols))
	for r := 0; r < t.nrows; r++ {
		for c, col := range t.cols {
			rec[c] = col.Value(r).Str()
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("table: write csv row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// Exported for the external test package, which can import the dataset
// generators (package table cannot: dataset imports it).
var (
	OracleReadCSV  = oracleReadCSV
	OracleWriteCSV = oracleWriteCSV
)
