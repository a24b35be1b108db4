package table

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// csvChunkSizes and csvWorkerCounts are the splits the chunked codec is
// checked at: chunk sizes that cut nearly every line, and some that cut
// rarely, at one, two and four parsing goroutines.
var (
	csvChunkSizes   = []int{1, 2, 3, 5, 17, 64, 4096, csvChunkBytes}
	csvWorkerCounts = []int{1, 2, 4}
)

// readOneChunk reads in as a single chunk on the calling goroutine: the
// serial read every split must reproduce.
func readOneChunk(in string, schema *Schema) (*Table, error) {
	return readCSV(strings.NewReader(in), schema, len(in)+1, 1)
}

// checkChunkedRead reads in at the given split and requires the
// one-chunk read's table (dictionary codes included) or its error text.
func checkChunkedRead(t *testing.T, in string, schema *Schema, chunkBytes, workers int) {
	t.Helper()
	want, wantErr := readOneChunk(in, schema)
	got, err := readCSV(strings.NewReader(in), schema, chunkBytes, workers)
	switch {
	case wantErr != nil && err == nil:
		t.Fatalf("chunk %d, workers %d: no error, want %v", chunkBytes, workers, wantErr)
	case wantErr == nil && err != nil:
		t.Fatalf("chunk %d, workers %d: error %v, want none", chunkBytes, workers, err)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("chunk %d, workers %d: error\n%v\nwant\n%v", chunkBytes, workers, err, wantErr)
	case err == nil:
		assertTablesEqual(t, got, want)
	}
}

// fuzzCorpus returns the string inputs of a fuzz target's committed
// seed corpus.
func fuzzCorpus(t *testing.T, target string) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s corpus: %v", target, err)
	}
	out := make(map[string]string)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		arg := strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")")
		s, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = s
	}
	return out
}

// repeatRows is the header followed by n rows built by row(i).
func repeatRows(header string, n int, row func(i int) string) string {
	var b strings.Builder
	b.WriteString(header)
	for i := 0; i < n; i++ {
		b.WriteString(row(i))
	}
	return b.String()
}

var csvSN = MustSchema(Field{Name: "S", Type: String}, Field{Name: "N", Type: Int})

// chunkCases are inputs whose chunk boundaries matter, with the
// one-chunk outcome each must have: an error containing wantErr, or
// none.
var chunkCases = []struct {
	name    string
	schema  *Schema
	in      string
	wantErr string
}{
	{
		// The nominal cut of most chunk sizes lands inside a quoted
		// field that spans lines.
		name: "quoted newline across a boundary",
		in: repeatRows("A,B\n", 40, func(i int) string {
			return fmt.Sprintf("r%d,\"x%d\n%s\ny\"\n", i%7, i%5, strings.Repeat("q", i%23))
		}),
	},
	{
		name: "blank lines and CRLF at boundaries",
		in: repeatRows("A,B\r\n\r\n", 60, func(i int) string {
			return fmt.Sprintf("%s\r\nv%d, w%d \r\n", strings.Repeat("\r\n", i%3), i%4, i%9)
		}) + "\r",
	},
	{
		name:   "cell error in chunk 0, syntax error in chunk 3 wins",
		schema: &csvSN,
		in: "S,N\na,bad\n" + repeatRows("", 30, func(i int) string { return fmt.Sprintf("b%d,%d\n", i%3, i) }) +
			"c\"d,2\n" + repeatRows("", 30, func(i int) string { return "e,1\n" }),
		wantErr: "csv line 33, column 2: " + `bare " in non-quoted-field`,
	},
	{
		name:   "cell errors in two chunks: the lower row wins",
		schema: &csvSN,
		in: "S,N\n" + repeatRows("", 20, func(i int) string { return fmt.Sprintf("a%d,%d\n", i%4, i) }) +
			"b,x1\n" + repeatRows("", 40, func(i int) string { return "c,1\n" }) + "d,x2\n" +
			repeatRows("", 20, func(i int) string { return "e,2\n" }),
		wantErr: `row 20: table: cannot parse "x1" as int`,
	},
	{
		name:    "arity error in the last chunk",
		schema:  &csvSN,
		in:      repeatRows("S,N\n", 50, func(i int) string { return fmt.Sprintf("s%d,%d\n", i%6, -i) }) + "z\n",
		wantErr: "csv line 52: row arity does not match schema",
	},
	{
		name:    "unterminated quote at the end",
		in:      repeatRows("A,B\n", 30, func(i int) string { return fmt.Sprintf("%d,%d\n", i, i) }) + "x,\"open\nrest\n",
		wantErr: "extraneous or missing \" in quoted-field",
	},
	{
		name:    "bare quote that flips quote parity",
		in:      repeatRows("A,B\nx\"y,1\n", 30, func(i int) string { return fmt.Sprintf("%d,%d\n", i, i) }),
		wantErr: "csv line 2, column 2: " + `bare " in non-quoted-field`,
	},
	{
		name: "header after blank lines",
		in:   "\n\n\r\n\n  H1 ,\"H\n2\"\nx,y\n\n",
	},
	{
		name:   "floats and ints over many chunks",
		schema: &fuzzMixed,
		in: repeatRows(fuzzMixedHeader, 80, func(i int) string {
			return fmt.Sprintf("%g, s%d ,%d\n", float64(i%11)/4, i%13, i*1000003)
		}),
	},
	// The inputs of the other CSV tests.
	{name: "arity short", in: "A,B\nx,1\ny\n", wantErr: "csv line 3:"},
	{name: "arity long", in: "A,B\nx,1\ny,2,3\n", wantErr: "csv line 3:"},
	{name: "arity after quoted newline", in: "A,B\n\n\"x\ny\",1\nz\n", wantErr: "csv line 5:"},
	{name: "duplicate header", schema: &csvAA, in: "A,A\nx,y\n", wantErr: "appears twice"},
	{name: "long line", in: "A,B\n" + strings.Repeat("x", 200<<10) + ",\"" + strings.Repeat("x", 200<<10) + "\n" + strings.Repeat("x", 200<<10) + "\"\nshort,row\n"},
	{name: "header only input", in: "\n  Age ,\"Zip Code \", Sex \r\n50,43102,M\n"},
	{name: "empty", in: "", wantErr: "read csv header: EOF"},
}

var csvAA = MustSchema(Field{Name: "A", Type: String}, Field{Name: "B", Type: String})

// TestReadCSVChunked: at every chunk size and worker count, the named
// boundary cases and the FuzzReadCSV seed corpus read exactly as one
// chunk does, down to the error text.
func TestReadCSVChunked(t *testing.T) {
	for _, tc := range chunkCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readOneChunk(tc.in, tc.schema)
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("one-chunk read: error %v, want %q", err, tc.wantErr)
			}
			for _, size := range csvChunkSizes {
				for _, workers := range csvWorkerCounts {
					checkChunkedRead(t, tc.in, tc.schema, size, workers)
				}
			}
		})
	}
	for name, in := range fuzzCorpus(t, "FuzzReadCSV") {
		t.Run("corpus/"+name, func(t *testing.T) {
			for _, size := range csvChunkSizes {
				for _, workers := range csvWorkerCounts {
					checkChunkedRead(t, in, nil, size, workers)
					checkChunkedRead(t, fuzzMixedHeader+in, &fuzzMixed, size, workers)
				}
			}
		})
	}
}

// TestReadCSVChunkCuts: every chunk but the last ends in a '\n' with an
// even number of quotes before it (odd only in input with a quote
// error), the chunks put together are the input, and each chunk's line
// offset counts the lines before it.
func TestReadCSVChunkCuts(t *testing.T) {
	for _, tc := range chunkCases {
		_, err := readOneChunk(tc.in, tc.schema)
		quoteErr := errors.Is(err, csv.ErrQuote) || errors.Is(err, csv.ErrBareQuote)
		for _, size := range csvChunkSizes[:6] {
			sp := csvSplitter{r: strings.NewReader(tc.in), size: size}
			var whole []byte
			for {
				c := sp.next(nil)
				if c.line != bytes.Count(whole, newline) {
					t.Fatalf("%s, size %d: chunk %d starts after line %d, want %d", tc.name, size, c.seq, c.line, bytes.Count(whole, newline))
				}
				whole = append(whole, c.data...)
				if c.final {
					break
				}
				if n := len(c.data); n == 0 || c.data[n-1] != '\n' || bytes.Count(c.data, quote)%2 != 0 && !quoteErr {
					t.Fatalf("%s, size %d: chunk %d %q is not cut after a record", tc.name, size, c.seq, c.data)
				}
			}
			if string(whole) != tc.in {
				t.Fatalf("%s, size %d: chunks put together differ from the input", tc.name, size)
			}
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestReadCSVSyntaxErrorStopsReading: after a syntax or arity error
// the reader reads no further than the chunks already in flight, also
// when the error is a quote that breaks quote parity for the rest of
// the input.
func TestReadCSVSyntaxErrorStopsReading(t *testing.T) {
	for _, tc := range []struct{ line2, want string }{
		{"x\"y,1", "csv line 2, column 2: bare \""},
		{"\"x\"y,1", "csv line 2, column 3: extraneous"},
		{"1,2,3", "csv line 2: row arity"},
	} {
		for _, workers := range csvWorkerCounts {
			in := repeatRows("A,B\n"+tc.line2+"\n", 100000, func(i int) string { return "p,q\n" })
			cr := &countingReader{r: strings.NewReader(in)}
			_, err := readCSV(cr, nil, 64, workers)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%q, workers %d: error %v, want %q", tc.line2, workers, err, tc.want)
			}
			if n := cr.n.Load(); n > 4<<10 {
				t.Fatalf("%q, workers %d: read %d of %d bytes after an error on line 2", tc.line2, workers, n, len(in))
			}
		}
	}
}

// settleGoroutines waits for the goroutine count to fall back to n.
func settleGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, started with %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

var errBoom = errors.New("boom")

// failingReader returns its data and then errBoom.
type failingReader struct{ data string }

func (r *failingReader) Read(p []byte) (int, error) {
	if r.data == "" {
		return 0, errBoom
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// failingWriter accepts n bytes, then fails every Write.
type failingWriter struct {
	n      int
	writes int // calls after the first failure
	failed bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.writes++
		return 0, errBoom
	}
	if len(p) > w.n {
		w.failed = true
		k := w.n
		w.n = 0
		return k, errBoom
	}
	w.n -= len(p)
	return len(p), nil
}

// TestCSVNoGoroutineLeak: every goroutine the codec starts has exited
// when it returns, whether it fails on a syntax error, a bad cell, a
// failing reader or a failing writer.
func TestCSVNoGoroutineLeak(t *testing.T) {
	rows := repeatRows("S,N\n", 5000, func(i int) string { return fmt.Sprintf("s%d,%d\n", i%9, i) })
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		r    io.Reader
		want string
	}{
		{"syntax", strings.NewReader(rows + "a\"b,1\n" + rows[4:]), "bare \""},
		{"cell", strings.NewReader(rows + "a,x\n" + rows[4:]), `cannot parse "x"`},
		{"reader", &failingReader{data: rows}, "boom"},
	} {
		_, err := readCSV(tc.r, &csvSN, 256, 4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		settleGoroutines(t, base)
	}
	tbl, err := readCSV(strings.NewReader(rows), &csvSN, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
	if err := tbl.writeCSV(&failingWriter{n: 1000}, 16, 4); !errors.Is(err, errBoom) {
		t.Fatalf("writer: error %v, want errBoom", err)
	}
	settleGoroutines(t, base)
}

// TestReadCSVReaderError: an error from the reader is returned wrapped,
// after the records before it are parsed, unless one of them is in
// error.
func TestReadCSVReaderError(t *testing.T) {
	rows := repeatRows("S,N\n", 2000, func(i int) string { return fmt.Sprintf("s%d,%d\n", i%9, i) })
	for _, workers := range csvWorkerCounts {
		_, err := readCSV(&failingReader{data: rows}, &csvSN, 100, workers)
		if !errors.Is(err, errBoom) || !strings.HasPrefix(err.Error(), "table: read csv line ") {
			t.Fatalf("workers %d: error %v, want a wrapped errBoom", workers, err)
		}
		_, err = readCSV(&failingReader{data: rows[:50] + "x\"y,1\n" + rows[50:]}, &csvSN, 100, workers)
		if err == nil || !strings.Contains(err.Error(), "bare \"") {
			t.Fatalf("workers %d: error %v, want the bare quote before the failed read", workers, err)
		}
		_, err = readCSV(&failingReader{}, &csvSN, 100, workers)
		if !errors.Is(err, errBoom) || !strings.HasPrefix(err.Error(), "table: read csv header: ") {
			t.Fatalf("workers %d: error %v, want a header read error", workers, err)
		}
	}
}

// rowProbe is a column that records the highest row rendered from it.
type rowProbe struct {
	Column
	max *atomic.Int64
}

func (c rowProbe) Value(i int) Value {
	for {
		m := c.max.Load()
		if int64(i) <= m || c.max.CompareAndSwap(m, int64(i)) {
			return c.Column.Value(i)
		}
	}
}

// TestWriteCSVWriterFails: a failing Write ends WriteCSV with an error
// that wraps it and names the first row of the refused buffer, nothing
// more is written, and rendering stops within the buffers in flight.
func TestWriteCSVWriterFails(t *testing.T) {
	rows := make([][]Value, 4000)
	for i := range rows {
		rows[i] = []Value{SV(fmt.Sprintf("s%d", i%7)), IV(int64(i))}
	}
	src, err := FromRows(csvSN, rows)
	if err != nil {
		t.Fatal(err)
	}
	const chunkRows = 10
	var first bytes.Buffer
	if err := src.writeCSV(&first, chunkRows, 1); err != nil {
		t.Fatal(err)
	}
	// The first buffer holds the header and rows 0-9.
	firstLen := 0
	for i := 0; i <= chunkRows; i++ {
		firstLen += bytes.IndexByte(first.Bytes()[firstLen:], '\n') + 1
	}
	for _, workers := range csvWorkerCounts {
		for _, tc := range []struct {
			accept int
			row    string
		}{{0, "row 0:"}, {firstLen, "row 10:"}, {firstLen + 5, "row 10:"}} {
			var max atomic.Int64
			probe := &Table{schema: src.schema, nrows: src.nrows, cols: []Column{src.cols[0], rowProbe{src.cols[1], &max}}}
			w := &failingWriter{n: tc.accept}
			err := probe.writeCSV(w, chunkRows, workers)
			if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "write csv "+tc.row) {
				t.Fatalf("workers %d, accept %d: error %v, want errBoom at %q", workers, tc.accept, err, tc.row)
			}
			if w.writes != 0 {
				t.Fatalf("workers %d: %d writes after the failure", workers, w.writes)
			}
			if limit := int64((workers + 2) * chunkRows); max.Load() >= limit {
				t.Fatalf("workers %d: rendered up to row %d after a failure at row %s", workers, max.Load(), tc.row)
			}
		}
	}
	empty := &Table{schema: src.schema, cols: []Column{newStringColumn(), &intColumn{}}}
	if err := empty.writeCSV(&failingWriter{}, chunkRows, 2); !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "write csv header:") {
		t.Fatalf("empty table: error %v, want a header write error", err)
	}
}

// Exported for the external test package, which runs the chunked
// codec over the dataset generators' tables.
var (
	ReadCSVChunked    = readCSV
	WriteCSVChunked   = (*Table).writeCSV
	AssertTablesEqual = assertTablesEqual
	CSVChunkSizes     = csvChunkSizes
	CSVWorkerCounts   = csvWorkerCounts
)
