package table

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// ReadCSV reads a comma-separated stream with a header row into a table.
// If schema is nil, every column is typed String and names come from the
// header. If a schema is supplied, the header must contain exactly its
// field names (order may differ; columns are matched by name).
//
// The dialect is RFC 4180 as encoding/csv reads it with TrimLeadingSpace:
// quoted fields may hold commas, doubled quotes and line breaks; CRLF and
// LF both end a record; blank lines are skipped; the final newline is
// optional. Every cell, quoted or not, is then trimmed of Unicode white
// space. A record whose cell count differs from the header's is an
// error wrapping ErrArity.
//
// Cells are scanned straight from the input bytes into the typed
// columns: strings are interned into the column dictionary (allocating
// only for a value not seen before), ints and floats are parsed in
// place.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	sc := csvScanner{br: bufio.NewReaderSize(r, 64<<10)}
	header, err := sc.header()
	if err != nil {
		return nil, fmt.Errorf("table: read csv header: %w", err)
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
	cols := make([]Column, sch.Len())
	for i, f := range sch.Fields {
		cols[i] = NewColumn(f.Type)
	}
	// sinks[i] is the concrete column csv column i appends to, so the
	// per-cell path is a nil check, not an interface call. String codes
	// and ints collect in blocks and are laid out once at the end.
	type sink struct {
		str   *stringColumn
		codes colBuf[int32]
		num   *intColumn
		vals  colBuf[int64]
		flt   *floatColumn
		pos   int
	}
	sinks := make([]sink, len(perm))
	for i, pos := range perm {
		sinks[i].pos = pos
		switch c := cols[pos].(type) {
		case *stringColumn:
			sinks[i].str = c
		case *intColumn:
			sinks[i].num = c
		case *floatColumn:
			sinks[i].flt = c
		}
	}

	// A bad cell ends appending but not scanning: a syntax or arity
	// error anywhere in the stream is reported in its place, and within
	// the bad row the cell reported is the first in schema order.
	var (
		cellErr    error
		cellErrRow int
		cellErrPos int
	)
	nrows := 0
	for ; ; nrows++ {
		ok, err := sc.nextRecord()
		if err != nil {
			return nil, fmt.Errorf("table: read csv line %d: %w", sc.lineNo, err)
		}
		if !ok {
			break
		}
		parse := cellErr == nil || cellErrRow == nrows
		n := 0
		for more := true; more; n++ {
			var cell []byte
			cell, more, err = sc.field()
			if err != nil {
				return nil, fmt.Errorf("table: %w", err)
			}
			if n >= len(sinks) || !parse {
				continue
			}
			s := &sinks[n]
			var bad error
			switch {
			case s.str != nil:
				code, ok := s.str.index[string(cell)]
				if !ok {
					code = s.str.intern(string(cell))
				}
				s.codes.add(code)
			case s.num != nil:
				v, err := parseIntCell(cell)
				if err != nil {
					bad = fmt.Errorf("table: cannot parse %q as int: %w", cell, err)
					break
				}
				s.vals.add(v)
			default:
				v, err := strconv.ParseFloat(string(cell), 64)
				if err != nil {
					bad = fmt.Errorf("table: cannot parse %q as float: %w", cell, err)
					break
				}
				s.flt.append(v)
			}
			if bad != nil && (cellErr == nil || s.pos < cellErrPos) {
				cellErr, cellErrRow, cellErrPos = fmt.Errorf("row %d: %w", nrows, bad), nrows, s.pos
			}
		}
		if n != len(sinks) {
			return nil, fmt.Errorf("table: csv line %d: %w: got %d cells, want %d", sc.recLine, ErrArity, n, len(sinks))
		}
	}
	if cellErr != nil {
		return nil, cellErr
	}
	for i := range sinks {
		switch s := &sinks[i]; {
		case s.str != nil:
			s.str.packed, s.str.frozen = packBlocks(s.codes.blocks(), len(s.str.dict)), true
			s.codes = colBuf[int32]{}
		case s.num != nil:
			s.num.vals = s.vals.flatten()
			s.num.invalidate()
		}
	}
	return &Table{schema: sch, cols: cols, nrows: nrows}, nil
}

// colBuf collects a column of unknown length in blocks that double up
// to colBufMax elements, so growing never copies what it already holds
// (append's 1.25x growth on large slices copies each value about four
// times) and the column is laid out once, at its exact size.
type colBuf[T any] struct {
	done [][]T
	cur  []T
	n    int // values in done
}

const colBufMax = 1 << 16

func (b *colBuf[T]) add(v T) {
	if len(b.cur) == cap(b.cur) {
		size := 256
		if b.cur != nil {
			b.done = append(b.done, b.cur)
			b.n += len(b.cur)
			size = min(2*cap(b.cur), colBufMax)
		}
		b.cur = make([]T, 0, size)
	}
	b.cur = append(b.cur, v)
}

func (b *colBuf[T]) blocks() [][]T { return append(b.done, b.cur) }

// flatten returns the values in one exact-size slice and empties b,
// dropping each block as soon as it is copied.
func (b *colBuf[T]) flatten() []T {
	out := make([]T, 0, b.n+len(b.cur))
	for i, blk := range b.done {
		out = append(out, blk...)
		b.done[i] = nil
	}
	out = append(out, b.cur...)
	*b = colBuf[T]{}
	return out
}

// parseIntCell parses a trimmed int cell. Plain decimals short enough
// that they cannot overflow take a loop over the bytes; anything else
// ("+5", overflow, junk) goes to strconv.ParseInt for its exact result
// and error.
func parseIntCell(b []byte) (int64, error) {
	d := b
	if len(d) > 0 && d[0] == '-' {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var n int64
	for _, c := range d {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		n = n*10 + int64(c-'0')
	}
	if len(d) < len(b) {
		n = -n
	}
	return n, nil
}

// csvScanner splits a byte stream into records and cells. It reads one
// physical line at a time; a cell it returns points into the read
// buffer or into its quoted-field scratch and stays valid only until
// the next call.
type csvScanner struct {
	br *bufio.Reader

	full    []byte // current physical line without its terminator
	line    []byte // unscanned suffix of full
	nl      bool   // whether full ended in '\n' (not end of input)
	lineNo  int    // physical line number of full, from 1
	recLine int    // physical line the current record started on

	long   []byte // holds a line longer than the read buffer
	quoted []byte // decoded quoted field
}

// readLine loads the next physical line. "\r\n" ends a line like "\n",
// and one '\r' just before the end of input is dropped, as in
// encoding/csv. It reports false at the end of input.
func (s *csvScanner) readLine() (bool, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return false, err
	}
	s.lineNo++
	s.nl = err == nil
	if s.nl {
		line = line[:len(line)-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	s.full, s.line = line, line
	return true, nil
}

// nextRecord moves to the first line of the next record, skipping blank
// lines. It reports false, with a nil error, at the end of input.
func (s *csvScanner) nextRecord() (bool, error) {
	for {
		ok, err := s.readLine()
		if !ok {
			if err == io.EOF {
				err = nil
			}
			return false, err
		}
		if len(s.line) > 0 {
			s.recLine = s.lineNo
			return true, nil
		}
	}
}

// header reads the first record as trimmed strings.
func (s *csvScanner) header() ([]string, error) {
	ok, err := s.nextRecord()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, io.EOF
	}
	var names []string
	for more := true; more; {
		var cell []byte
		if cell, more, err = s.field(); err != nil {
			return nil, err
		}
		names = append(names, string(cell))
	}
	return names, nil
}

// field returns the next cell of the current record, trimmed of Unicode
// white space, and whether a comma followed it (so another cell of the
// record follows).
func (s *csvScanner) field() (cell []byte, more bool, err error) {
	line := s.line
	i := skipSpace(line)
	if i < len(line) && line[i] == '"' {
		return s.quotedField(line[i+1:])
	}
	j := i
	for ; j < len(line) && line[j] != ','; j++ {
		if line[j] == '"' {
			return nil, false, s.syntaxErr(line[j:], csv.ErrBareQuote)
		}
	}
	cell = line[i:j]
	if n := len(cell); n > 0 && (cell[n-1] <= ' ' || cell[n-1] >= utf8.RuneSelf) {
		cell = bytes.TrimRightFunc(cell, unicode.IsSpace)
	}
	if j < len(line) {
		s.line = line[j+1:]
		return cell, true, nil
	}
	s.line = line[j:]
	return cell, false, nil
}

// quotedField decodes a quoted field whose opening quote has been
// consumed; line is the rest of the current line. The field may run
// over several lines; each line break inside it decodes as '\n'.
func (s *csvScanner) quotedField(line []byte) ([]byte, bool, error) {
	s.quoted = s.quoted[:0]
	for {
		i := bytes.IndexByte(line, '"')
		if i < 0 {
			if !s.nl {
				return nil, false, s.syntaxErr(line[len(line):], csv.ErrQuote)
			}
			s.quoted = append(s.quoted, line...)
			s.quoted = append(s.quoted, '\n')
			ok, err := s.readLine()
			if !ok {
				if err == io.EOF {
					return nil, false, s.syntaxErr(nil, csv.ErrQuote)
				}
				return nil, false, err
			}
			line = s.line
			continue
		}
		s.quoted = append(s.quoted, line[:i]...)
		rest := line[i+1:]
		switch {
		case len(rest) == 0:
			s.line = rest
			return bytes.TrimSpace(s.quoted), false, nil
		case rest[0] == ',':
			s.line = rest[1:]
			return bytes.TrimSpace(s.quoted), true, nil
		case rest[0] == '"':
			s.quoted = append(s.quoted, '"')
			line = rest[1:]
		default:
			return nil, false, s.syntaxErr(line[i:], csv.ErrQuote)
		}
	}
}

// syntaxErr locates err at the start of at, a suffix of the current
// line (nil: past the end of input).
func (s *csvScanner) syntaxErr(at []byte, err error) error {
	return fmt.Errorf("csv line %d, column %d: %w", s.lineNo, len(s.full)-len(at)+1, err)
}

// skipSpace returns the index of the first rune of b that is not
// Unicode white space.
func skipSpace(b []byte) int {
	i := 0
	for i < len(b) {
		if c := b[i]; c > ' ' && c < utf8.RuneSelf {
			return i
		}
		r, n := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return i
		}
		i += n
	}
	return i
}

// ReadCSVHeader reads only the header row of a CSV stream, in
// ReadCSV's dialect and trimmed as ReadCSV trims it: the column names
// ReadCSV would match against a schema.
func ReadCSVHeader(r io.Reader) ([]string, error) {
	sc := csvScanner{br: bufio.NewReader(r)}
	header, err := sc.header()
	if err != nil {
		return nil, fmt.Errorf("table: read csv header: %w", err)
	}
	return header, nil
}

// ReadCSVFile reads a CSV file into a table; see ReadCSV.
func ReadCSVFile(path string, schema *Schema) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	defer f.Close()
	return ReadCSV(f, schema)
}

// csvBlock is the number of rows whose dictionary codes WriteCSV reads
// per column at a time.
const csvBlock = 1024

// WriteCSV writes the table with a header row. The output is byte for
// byte what encoding/csv's Writer produces for the same records: each
// string-dictionary entry is rendered through a csv.Writer the first
// time a row uses it and copied from then on; ints and floats render as
// Value.Str does, which never needs quoting.
func (t *Table) WriteCSV(w io.Writer) error {
	// The header goes through the same buffer as the rows, so w sees
	// only full-buffer writes, as it did from csv.Writer.
	var q csvQuoter
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.Write(q.record(t.schema.Names())); err != nil {
		return fmt.Errorf("table: write csv header: %w", err)
	}
	encs := make([]csvEncoder, len(t.cols))
	for c, col := range t.cols {
		e := &encs[c]
		switch col := col.(type) {
		case *stringColumn:
			e.str = col
			e.rendered = make([][]byte, len(col.dict))
			e.codes = make([]int32, 0, csvBlock)
		case *intColumn:
			e.num = col
		case *floatColumn:
			e.flt = col
		default:
			e.other = col
		}
	}
	for lo := 0; lo < t.nrows; lo += csvBlock {
		hi := min(lo+csvBlock, t.nrows)
		for c := range encs {
			if e := &encs[c]; e.str != nil {
				e.codes = e.str.codes32(e.codes[:0], lo, hi)
			}
		}
		for r := lo; r < hi; r++ {
			buf := bw.AvailableBuffer()
			for c := range encs {
				if c > 0 {
					buf = append(buf, ',')
				}
				e := &encs[c]
				switch {
				case e.str != nil:
					code := e.codes[r-lo]
					cell := e.rendered[code]
					if cell == nil {
						cell = bytes.Clone(q.quote(e.str.dict[code]))
						e.rendered[code] = cell
					}
					buf = append(buf, cell...)
				case e.num != nil:
					buf = strconv.AppendInt(buf, e.num.vals[r], 10)
				case e.flt != nil:
					buf = strconv.AppendFloat(buf, e.flt.vals[r], 'g', -1, 64)
				default:
					buf = append(buf, q.quote(e.other.Value(r).Str())...)
				}
			}
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return fmt.Errorf("table: write csv row %d: %w", r, err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("table: write csv: %w", err)
	}
	return nil
}

// WriteCSVFile writes the table to a file, creating or truncating it.
func (t *Table) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("table: %w", err)
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csvEncoder renders one column's cells; exactly one of str, num, flt
// and other is set.
type csvEncoder struct {
	str      *stringColumn
	codes    []int32  // the current block's dictionary codes
	rendered [][]byte // quoted dictionary entries, nil until first used
	num      *intColumn
	flt      *floatColumn
	other    Column
}

// csvQuoter renders records and cells exactly as csv.Writer does.
type csvQuoter struct {
	buf bytes.Buffer
	cw  *csv.Writer
	rec [1]string
}

// record returns rec as csv.Writer writes it, terminator included. The
// result is valid until the next call.
func (q *csvQuoter) record(rec []string) []byte {
	if q.cw == nil {
		q.cw = csv.NewWriter(&q.buf)
	}
	q.buf.Reset()
	// Writes to a bytes.Buffer cannot fail.
	_ = q.cw.Write(rec)
	q.cw.Flush()
	return q.buf.Bytes()
}

// quote returns s as a csv.Writer field, quoted and escaped where the
// writer would. The result is non-nil and valid until the next call.
func (q *csvQuoter) quote(s string) []byte {
	q.rec[0] = s
	b := q.record(q.rec[:])
	return b[:len(b)-1] // drop the record terminator
}
