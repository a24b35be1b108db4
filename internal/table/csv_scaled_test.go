package table_test

import (
	"bytes"
	"testing"

	"psk/internal/dataset"
	"psk/internal/table"
)

// TestCSVScaledMatchesOracle: the ~100k-row Adult shape encodes byte for
// byte as the encoding/csv writer encodes it, and both readers parse
// that output into the same table.
func TestCSVScaledMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2006} {
		tbl, err := dataset.GenerateScaled(2, seed)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := tbl.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := table.OracleWriteCSV(tbl, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: WriteCSV differs from the encoding/csv writer", seed)
		}
		sch := dataset.Schema()
		back, err := table.ReadCSV(bytes.NewReader(got.Bytes()), &sch)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := table.OracleReadCSV(bytes.NewReader(got.Bytes()), &sch)
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := back.WriteCSV(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), got.Bytes()) {
			t.Fatalf("seed %d: ReadCSV then WriteCSV does not reproduce the file", seed)
		}
		if back.NumRows() != ref.NumRows() {
			t.Fatalf("seed %d: %d rows, oracle %d", seed, back.NumRows(), ref.NumRows())
		}
		for c := 0; c < ref.NumCols(); c++ {
			bc, rc := back.ColumnAt(c), ref.ColumnAt(c)
			for r := 0; r < ref.NumRows(); r++ {
				if bc.Code(r) != rc.Code(r) || !bc.Value(r).Equal(rc.Value(r)) {
					t.Fatalf("seed %d row %d col %d: %v, oracle %v", seed, r, c, bc.Value(r), rc.Value(r))
				}
			}
		}
	}
}
