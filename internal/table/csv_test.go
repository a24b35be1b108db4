package table

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strings"
	"testing"
)

// fuzzMixed is the typed schema the differential fuzz reads against; the
// header it is given lists the columns out of schema order, padded, so
// the column permutation and header trimming are exercised too.
var fuzzMixed = MustSchema(
	Field{Name: "S", Type: String},
	Field{Name: "N", Type: Int},
	Field{Name: "F", Type: Float},
)

const fuzzMixedHeader = "F, S ,N\n"

// FuzzReadCSV pins the byte scanner to the encoding/csv oracle: over the
// nil schema and the mixed String/Int/Float schema, both readers fail or
// both build equal tables (values, dictionary codes and order). Failures
// must agree in kind: a quote or field-count error of the oracle is the
// same csv sentinel, or ErrArity, from ReadCSV, and any other error
// (header, cell parse) has the same text. The input is also read cut
// into chunks of a size derived from it, by a worker count derived from
// it, and must give ReadCSV's table or its error text. Seed corpus
// under testdata/fuzz.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		for _, tc := range []struct {
			schema *Schema
			text   string
		}{
			{nil, in},
			{&fuzzMixed, fuzzMixedHeader + in},
		} {
			got, gotErr := ReadCSV(strings.NewReader(tc.text), tc.schema)
			want, wantErr := oracleReadCSV(strings.NewReader(tc.text), tc.schema)
			if gk, wk := csvErrKind(gotErr), csvErrKind(wantErr); gk != wk {
				t.Fatalf("schema %v, input %q:\nReadCSV error %v (%s)\noracle error  %v (%s)", tc.schema, tc.text, gotErr, gk, wantErr, wk)
			}
			if csvErrKind(wantErr) == "other" && gotErr.Error() != wantErr.Error() {
				t.Fatalf("schema %v, input %q: error text\n%v\nwant\n%v", tc.schema, tc.text, gotErr, wantErr)
			}
			if wantErr == nil {
				assertTablesEqual(t, got, want)
			}
			chunk, workers := 1+len(in)%7, 1+len(in)%3
			chunked, chunkedErr := readCSV(strings.NewReader(tc.text), tc.schema, chunk, workers)
			if (chunkedErr == nil) != (gotErr == nil) || chunkedErr != nil && chunkedErr.Error() != gotErr.Error() {
				t.Fatalf("schema %v, input %q: chunk %d, workers %d: error %v, ReadCSV error %v", tc.schema, tc.text, chunk, workers, chunkedErr, gotErr)
			}
			if gotErr == nil {
				assertTablesEqual(t, chunked, got)
			}
		}
	})
}

// csvErrKind classifies a read error for the differential comparison.
func csvErrKind(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, csv.ErrFieldCount), errors.Is(err, ErrArity):
		return "arity"
	case errors.Is(err, csv.ErrQuote):
		return "quote"
	case errors.Is(err, csv.ErrBareQuote):
		return "bare quote"
	}
	return "other"
}

// FuzzWriteCSV pins WriteCSV to the encoding/csv oracle writer, byte for
// byte, on a String/String/Int/Float table, on a row subset gathered
// from it (shared dictionaries with unused entries) and on the same
// columns hidden behind a foreign Column type; and reads the output
// back to the same table whenever every string cell survives ReadCSV's
// trimming. Each table is also written one and two rows per buffer by
// two and three workers, byte for byte the same. Seed corpus under
// testdata/fuzz.
func FuzzWriteCSV(f *testing.F) {
	sch := MustSchema(
		Field{Name: "S", Type: String},
		Field{Name: "T", Type: String},
		Field{Name: "N", Type: Int},
		Field{Name: "F", Type: Float},
	)
	f.Fuzz(func(t *testing.T, a, b string, n int64, x float64) {
		as, bs := strings.Split(a, "|"), strings.Split(b, "|")
		canonical := true
		var rows [][]Value
		for i, s := range as {
			u := bs[i%len(bs)]
			for _, c := range []string{s, u} {
				canonical = canonical && c == strings.TrimSpace(c) && !strings.Contains(c, "\r\n")
			}
			rows = append(rows, []Value{SV(s), SV(u), IV(n + int64(i)), FV(x * float64(i-1))})
		}
		tbl, err := FromRows(sch, rows)
		if err != nil {
			t.Fatal(err)
		}
		subset, err := tbl.Gather([]int{len(rows) - 1})
		if err != nil {
			t.Fatal(err)
		}
		opaque := &Table{schema: tbl.schema, nrows: tbl.nrows}
		for _, c := range tbl.cols {
			opaque.cols = append(opaque.cols, opaqueColumn{c})
		}
		for _, tb := range []*Table{tbl, subset, opaque} {
			var got, want bytes.Buffer
			if err := tb.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if err := oracleWriteCSV(tb, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteCSV output\n%q\nwant\n%q", got.Bytes(), want.Bytes())
			}
			for rows := 1; rows <= 2; rows++ {
				var chunked bytes.Buffer
				if err := tb.writeCSV(&chunked, rows, rows+1); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(chunked.Bytes(), want.Bytes()) {
					t.Fatalf("WriteCSV at %d rows per buffer\n%q\nwant\n%q", rows, chunked.Bytes(), want.Bytes())
				}
			}
		}
		if !canonical {
			return
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf, &sch)
		if err != nil {
			t.Fatalf("ReadCSV(WriteCSV(t)): %v", err)
		}
		assertTablesEqual(t, back, tbl)
	})
}

// opaqueColumn hides a column's concrete type, as a Column implemented
// outside this package would.
type opaqueColumn struct{ Column }

// assertTablesEqual checks schema, row count, every value (floats bit
// for bit) and every dictionary code.
func assertTablesEqual(t *testing.T, got, want *Table) {
	t.Helper()
	if gs, ws := got.Schema(), want.Schema(); !gs.Equal(ws) {
		t.Fatalf("schema %v, want %v", gs.Fields, ws.Fields)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows %d, want %d", got.NumRows(), want.NumRows())
	}
	for c := range want.cols {
		gc, wc := got.cols[c], want.cols[c]
		for r := 0; r < want.nrows; r++ {
			gv, wv := gc.Value(r), wc.Value(r)
			same := gv.Kind() == wv.Kind() && gv.Str() == wv.Str()
			if wv.Kind() == Float {
				same = gv.Kind() == Float && math.Float64bits(gv.Float()) == math.Float64bits(wv.Float())
			}
			if !same || gc.Code(r) != wc.Code(r) {
				t.Fatalf("row %d col %d: %#v (code %d), want %#v (code %d)", r, c, gv, gc.Code(r), wv, wc.Code(r))
			}
		}
	}
}

// TestReadCSVArity: a record with too few or too many cells is an
// ErrArity naming the physical line the record starts on.
func TestReadCSVArity(t *testing.T) {
	for _, tc := range []struct{ in, line string }{
		{"A,B\nx,1\ny\n", "csv line 3:"},
		{"A,B\nx,1\ny,2,3\n", "csv line 3:"},
		{"A,B\n\n\"x\ny\",1\nz\n", "csv line 5:"},
	} {
		_, err := ReadCSV(strings.NewReader(tc.in), nil)
		if !errors.Is(err, ErrArity) || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("%q: error %v, want ErrArity at %q", tc.in, err, tc.line)
		}
	}
}

// TestReadCSVDuplicateHeader: with a schema, a header naming one column
// twice is rejected instead of leaving the unnamed column empty.
func TestReadCSVDuplicateHeader(t *testing.T) {
	sch := MustSchema(Field{Name: "A", Type: String}, Field{Name: "B", Type: String})
	if _, err := ReadCSV(strings.NewReader("A,A\nx,y\n"), &sch); err == nil {
		t.Fatal("duplicate header accepted")
	}
}

// TestReadCSVLongLine: a record longer than the read buffer reads the
// same as through the oracle.
func TestReadCSVLongLine(t *testing.T) {
	long := strings.Repeat("x", 200<<10)
	in := "A,B\n" + long + ",\"" + long + "\n" + long + "\"\nshort,row\n"
	got, err := ReadCSV(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleReadCSV(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, got, want)
}

// TestReadCSVHeader: the header alone reads as the column names ReadCSV
// infers, trimmed the same way, so a schema built from it matches.
func TestReadCSVHeader(t *testing.T) {
	in := "\n  Age ,\"Zip Code \", Sex \r\n50,43102,M\n"
	got, err := ReadCSVHeader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := ReadCSV(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := tbl.Schema().Names(); strings.Join(got, "|") != strings.Join(want, "|") || len(got) != 3 || got[1] != "Zip Code" {
		t.Fatalf("header %q, ReadCSV names %q", got, want)
	}
	if _, err := ReadCSVHeader(strings.NewReader("")); err == nil {
		t.Fatal("empty stream gave a header")
	}
}
