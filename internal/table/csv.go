package table

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"
)

// csvChunkBytes is the size of the buffers ReadCSV cuts its input into.
// A chunk ends at the last record boundary in its buffer, so it holds
// whole records; a record longer than the buffer grows it.
const csvChunkBytes = 1 << 20

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
// The input is cut into ~1 MiB chunks of whole records, which up to
// runtime.GOMAXPROCS(0) goroutines parse at once; an input that fits
// one chunk is parsed on the calling goroutine. The table, its
// dictionary codes and any error are those of a serial read: strings
// are coded in order of first appearance, the first syntax or arity
// error in the stream wins over any bad cell, and of the bad cells the
// first row's is reported. An error from r is returned wrapped, unless
// a syntax or arity error in the lines read before it comes first.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	return readCSV(r, schema, csvChunkBytes, runtime.GOMAXPROCS(0))
}

// readCSV is ReadCSV with the chunk size and the number of parsing
// goroutines given.
func readCSV(r io.Reader, schema *Schema, chunkBytes, workers int) (*Table, error) {
	sp := csvSplitter{r: r, size: max(chunkBytes, 1)}
	first, header, err := sp.header()
	if err != nil {
		return nil, fmt.Errorf("table: read csv header: %w", err)
	}
	sch, perm, err := csvSchema(header, schema)
	if err != nil {
		return nil, err
	}
	p := newCSVParser(sch, perm)
	if err := p.run(&sp, first, workers); err != nil {
		return nil, err
	}
	return p.table()
}

// csvSchema matches a header to the schema (nil: all String, named by
// the header). perm[i] is the schema position of csv column i.
func csvSchema(header []string, schema *Schema) (Schema, []int, error) {
	perm := make([]int, len(header))
	if schema == nil {
		fields := make([]Field, len(header))
		for i, h := range header {
			fields[i] = Field{Name: h, Type: String}
			perm[i] = i
		}
		sch, err := NewSchema(fields...)
		return sch, perm, err
	}
	sch := *schema
	if len(header) != sch.Len() {
		return sch, nil, fmt.Errorf("table: csv has %d columns, schema has %d", len(header), sch.Len())
	}
	seen := make([]bool, sch.Len())
	for i, h := range header {
		pos := sch.Index(h)
		if pos < 0 {
			return sch, nil, fmt.Errorf("table: csv column %q not in schema", h)
		}
		if seen[pos] {
			return sch, nil, fmt.Errorf("table: csv column %q appears twice", h)
		}
		seen[pos] = true
		perm[i] = pos
	}
	return sch, perm, nil
}

// csvSplitter cuts a stream into chunks of whole records.
type csvSplitter struct {
	r     io.Reader
	size  int    // buffer size of a new chunk
	carry []byte // bytes read past the last cut
	line  int    // physical lines before the next chunk
	seq   int    // index of the next chunk
	eof   bool
}

// csvChunk is a run of whole records and, once parsed, its cells.
type csvChunk struct {
	buf   []byte // storage of data, reused for a later chunk
	data  []byte // the records
	seq   int
	line  int   // physical lines before data
	lines int   // '\n' bytes in data
	final bool  // data runs to the end of input
	err   error // the read failed after data, the complete lines read

	// Set by the goroutine that parses the chunk.
	worker int // index of that goroutine, whose dictionaries codes index
	rows   int
	cols   []csvChunkCol // by csv column
	fail   error         // syntax or arity error: the read fails here
	bad    error         // first bad cell, in (row, schema position) order
	badRow int           // chunk row of bad
	badPos int           // schema position of bad
}

// csvChunkCol is one column of a parsed chunk; which slice is used
// depends on the column type.
type csvChunkCol struct {
	codes []int32   // worker dictionary codes
	vals  []int64   // ints
	flts  []float64 // floats
	// fresh lists the worker dictionary entries first met in this
	// chunk, in code order: their first appearances, in stream order.
	fresh []string
}

// next reads the next chunk into buf's storage. The chunk ends just
// after the last '\n' in the buffer with an even number of '"' before
// it in the chunk, or at the end of input. In input the scanner
// accepts, the quotes before a '\n' are odd in number exactly when it
// lies inside a quoted field, so such a '\n' ends a record unless a
// syntax error comes before it, in this chunk or an earlier one, and
// that error is reported first.
func (sp *csvSplitter) next(buf []byte) *csvChunk {
	c := &csvChunk{seq: sp.seq, line: sp.line}
	sp.seq++
	buf = append(buf[:0], sp.carry...)
	if cap(buf) < sp.size {
		buf = slices.Grow(buf, sp.size-len(buf))
	}
	var cut int
	for {
		if !sp.eof {
			n, err := io.ReadFull(sp.r, buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			switch err {
			case nil:
			case io.EOF, io.ErrUnexpectedEOF:
				sp.eof = true
			default:
				// Keep the complete lines read: the records before the
				// failure may hold the error to report.
				sp.eof, c.err = true, err
				buf = buf[:bytes.LastIndexByte(buf, '\n')+1]
			}
		}
		if sp.eof {
			cut = len(buf)
			break
		}
		if cut = lastRecordEnd(buf); cut >= 0 {
			break
		}
		if cut = syntaxErrorEnd(buf); cut >= 0 {
			break
		}
		buf = slices.Grow(buf, cap(buf)) // a record longer than the buffer
	}
	sp.carry = append(sp.carry[:0], buf[cut:]...)
	c.buf, c.data, c.final = buf, buf[:cut], sp.eof
	c.lines = bytes.Count(c.data, newline)
	sp.line += c.lines
	return c
}

var newline, quote = []byte{'\n'}, []byte{'"'}

// lastRecordEnd returns the index just past the last '\n' in b with an
// even number of '"' before it, or -1 if there is none.
func lastRecordEnd(b []byte) int {
	odd := bytes.Count(b, quote)&1 == 1 // quotes before i
	for i := len(b); ; {
		j := bytes.LastIndexByte(b[:i], '\n')
		if j < 0 {
			return -1
		}
		odd = odd != (bytes.Count(b[j:i], quote)&1 == 1)
		if !odd {
			return j + 1
		}
		i = j
	}
}

// errOpenQuote stops syntaxErrorEnd's scan at a quoted field that is
// still open where the data ends.
var errOpenQuote = errors.New("open quoted field")

// syntaxErrorEnd is the cut for a buffer with no '\n' of even quote
// parity: either its last record has a quoted field longer than the
// buffer, and it returns -1 so that the buffer grows, or a syntax error
// broke parity, and it returns the index just past the last '\n' so
// that the chunk holds the error and no more of the input is read for
// it.
func syntaxErrorEnd(b []byte) int {
	end := bytes.LastIndexByte(b, '\n') + 1
	sc := csvScanner{data: b[:end], interrupted: errOpenQuote}
	for sc.nextRecord() {
		for more := true; more; {
			_, m, err := sc.field()
			if err == errOpenQuote {
				return -1
			}
			if err != nil {
				return end
			}
			more = m
		}
	}
	return -1
}

// header reads chunks up to the first record and parses it as the
// header. It returns the chunk holding the records after it.
func (sp *csvSplitter) header() (*csvChunk, []string, error) {
	var buf []byte
	for {
		c := sp.next(buf)
		sc := csvScanner{data: c.data, lineNo: c.line, interrupted: c.err}
		names, err := sc.header()
		if err == io.EOF && c.err != nil {
			err = c.err
		}
		if err == io.EOF && !c.final {
			buf = c.buf // only blank lines so far
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		c.data, c.lines = sc.data, c.lines-(sc.lineNo-c.line)
		c.line = sc.lineNo
		return c, names, nil
	}
}

// csvParser merges parsed chunks, in input order, into the columns of
// one table.
type csvParser struct {
	sch   Schema
	cols  []Column
	types []Type    // by csv column; read by every parsing goroutine
	perm  []int     // by csv column: schema position; read likewise
	sinks []csvSink // by csv column; merge state

	// stop is the lowest index of a chunk that failed (MaxInt64: none
	// yet): chunks after it need not be read or parsed.
	stop atomic.Int64

	rows int   // rows merged
	bad  error // first bad cell, with its table row
}

// csvSink is where one csv column's chunks are merged.
type csvSink struct {
	str   *stringColumn
	num   *intColumn
	flt   *floatColumn
	codes colBuf[int32]
	vals  colBuf[int64]
	// global[w][c] is the column code of dictionary code c of parsing
	// goroutine w; ident[w] reports global[w][c] == c for every c.
	global [][]int32
	ident  []bool
}

func newCSVParser(sch Schema, perm []int) *csvParser {
	p := &csvParser{sch: sch, cols: make([]Column, sch.Len()), types: make([]Type, len(perm)), perm: perm, sinks: make([]csvSink, len(perm))}
	p.stop.Store(math.MaxInt64)
	for i, f := range sch.Fields {
		p.cols[i] = NewColumn(f.Type)
	}
	for i, pos := range perm {
		s := &p.sinks[i]
		p.types[i] = p.cols[pos].Type()
		switch c := p.cols[pos].(type) {
		case *stringColumn:
			s.str = c
		case *intColumn:
			s.num = c
		case *floatColumn:
			s.flt = c
		}
	}
	return p
}

// run parses and merges the chunks from first on, reading each chunk
// only when it can be parsed, and merges them in input order. Chunk
// buffers are reused once merged. An input that is one chunk is parsed
// on the calling goroutine.
func (p *csvParser) run(sp *csvSplitter, first *csvChunk, workers int) error {
	if first.final {
		workers = 1
	}
	var (
		free [][]byte
		ws   = make([]*csvWorker, max(workers, 1))
	)
	next := func() (*csvChunk, bool) {
		c := first
		switch {
		case c != nil:
			first = nil
		case sp.eof || p.stop.Load() != math.MaxInt64:
			return nil, false
		default:
			var buf []byte
			if n := len(free); n > 0 {
				buf, free = free[n-1], free[:n-1]
			}
			c = sp.next(buf)
		}
		return c, true
	}
	parse := func(id int, c *csvChunk) {
		if ws[id] == nil {
			ws[id] = p.newWorker(id)
		}
		p.parse(ws[id], c)
	}
	merge := func(c *csvChunk) error {
		if err := p.merge(c); err != nil {
			return err
		}
		free = append(free, c.buf)
		return nil
	}
	return inOrder(workers, next, parse, merge)
}

// inOrder passes the jobs next produces (until it reports none) to work
// and then, in the order they were produced, to done. With workers > 1,
// work runs on up to that many goroutines, started as jobs arrive and
// told apart by the index work is given, so each can keep its own
// state; at most workers+1 jobs are out at a time. Otherwise work runs
// on the caller, on each job as it is produced. next and done always
// run on the caller. The first error from done ends the run: no job is
// produced after it, the goroutines skip the jobs they have not
// started, and inOrder returns it once every goroutine has exited.
func inOrder[J any](workers int, next func() (J, bool), work func(worker int, j J), done func(J) error) error {
	type slot struct {
		job  J
		done chan struct{} // closed once worked, when worked off the caller
	}
	inFlight := 1
	var (
		jobs    chan *slot
		wg      sync.WaitGroup
		stop    atomic.Bool
		started int
	)
	if workers > 1 {
		inFlight = workers + 1
		// Sized to the jobs in flight, so handing one out never blocks.
		jobs = make(chan *slot, inFlight)
		defer func() {
			stop.Store(true)
			close(jobs)
			wg.Wait()
		}()
	}
	var queue []*slot
	for more := true; ; {
		for more && len(queue) < inFlight {
			j, ok := next()
			if more = ok; !ok {
				break
			}
			s := &slot{job: j}
			queue = append(queue, s)
			if jobs == nil {
				work(0, j)
				continue
			}
			s.done = make(chan struct{})
			if started < workers {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for s := range jobs {
						if !stop.Load() {
							work(id, s.job)
						}
						close(s.done)
					}
				}(started)
				started++
			}
			jobs <- s
		}
		if len(queue) == 0 {
			return nil
		}
		s := queue[0]
		queue = queue[1:]
		if s.done != nil {
			<-s.done
		}
		if err := done(s.job); err != nil {
			return err
		}
	}
}

// csvWorker is what one parsing goroutine keeps across its chunks: its
// scanner and, by csv column, the dictionary its string cells are
// coded against.
type csvWorker struct {
	id    int
	sc    csvScanner
	dicts []*stringColumn
}

func (p *csvParser) newWorker(id int) *csvWorker {
	w := &csvWorker{id: id, dicts: make([]*stringColumn, len(p.types))}
	for i, t := range p.types {
		if t == String {
			w.dicts[i] = newStringColumn()
		}
	}
	return w
}

// parse scans chunk c into its columns. A bad cell ends appending but
// not scanning: a syntax or arity error anywhere in the chunk is
// reported in its place, and within the bad row the cell reported is
// the first in schema order. A syntax or arity error also tells the
// other goroutines to drop the chunks after c.
func (p *csvParser) parse(w *csvWorker, c *csvChunk) {
	c.worker = w.id
	if p.stop.Load() < int64(c.seq) {
		return
	}
	ncols := len(p.types)
	// A record of n cells holds n-1 commas, and all but the last end
	// in '\n', so this bounds the chunk's rows.
	hint := min(c.lines, len(c.data)/max(ncols-1, 1)) + 1
	c.cols = make([]csvChunkCol, ncols)
	from := make([]int, ncols)
	for i, t := range p.types {
		switch t {
		case String:
			c.cols[i].codes = make([]int32, 0, hint)
			from[i] = len(w.dicts[i].dict)
		case Int:
			c.cols[i].vals = make([]int64, 0, hint)
		default:
			c.cols[i].flts = make([]float64, 0, hint)
		}
	}
	sc := &w.sc
	sc.data, sc.lineNo, sc.interrupted = c.data, c.line, c.err
	fail := func(err error) {
		c.fail = err
		for {
			s := p.stop.Load()
			if s <= int64(c.seq) || p.stop.CompareAndSwap(s, int64(c.seq)) {
				return
			}
		}
	}
	rows := 0
	for ; sc.nextRecord(); rows++ {
		if rows&1023 == 1023 && p.stop.Load() < int64(c.seq) {
			return
		}
		parse := c.bad == nil || c.badRow == rows
		n := 0
		for more := true; more; n++ {
			cell, m, err := sc.field()
			if err != nil && err == c.err {
				return // the read failed inside this record
			}
			if err != nil {
				fail(fmt.Errorf("table: %w", err))
				return
			}
			more = m
			if n >= ncols || !parse {
				continue
			}
			col := &c.cols[n]
			var bad error
			switch p.types[n] {
			case String:
				d := w.dicts[n]
				code, ok := d.index[string(cell)]
				if !ok {
					code = d.intern(string(cell))
				}
				col.codes = append(col.codes, code)
			case Int:
				v, err := parseIntCell(cell)
				if err != nil {
					bad = fmt.Errorf("table: cannot parse %q as int: %w", cell, err)
					break
				}
				col.vals = append(col.vals, v)
			default:
				v, err := strconv.ParseFloat(string(cell), 64)
				if err != nil {
					bad = fmt.Errorf("table: cannot parse %q as float: %w", cell, err)
					break
				}
				col.flts = append(col.flts, v)
			}
			if pos := p.perm[n]; bad != nil && (c.bad == nil || pos < c.badPos) {
				c.bad, c.badRow, c.badPos = bad, rows, pos
			}
		}
		if n != ncols {
			fail(fmt.Errorf("table: csv line %d: %w: got %d cells, want %d", sc.recLine, ErrArity, n, ncols))
			return
		}
	}
	c.rows = rows
	for i, t := range p.types {
		if t == String {
			c.cols[i].fresh = w.dicts[i].dict[from[i]:]
		}
	}
}

// merge appends chunk c, the next in input order, to the columns, or
// returns the error that ends the read there.
func (p *csvParser) merge(c *csvChunk) error {
	switch {
	case c.fail != nil:
		return c.fail
	case c.err != nil:
		return fmt.Errorf("table: read csv line %d: %w", c.line+c.lines, c.err)
	case c.bad != nil && p.bad == nil:
		p.bad = fmt.Errorf("row %d: %w", p.rows+c.badRow, c.bad)
	}
	p.rows += c.rows
	if p.bad != nil {
		return nil // only a later syntax or arity error can change the outcome
	}
	for i := range p.sinks {
		s, col := &p.sinks[i], &c.cols[i]
		switch {
		case s.str != nil:
			s.recode(c.worker, col)
			s.codes.add(col.codes)
		case s.num != nil:
			s.vals.add(col.vals)
		default:
			for _, v := range col.flts {
				s.flt.append(v)
			}
		}
	}
	return nil
}

// recode turns the worker dictionary codes of col into column codes.
// Every string first met in this chunk is among the worker's fresh
// entries, in order of appearance, and every earlier chunk is merged,
// so interning the fresh entries in order assigns column codes in
// order of first appearance in the stream, as a serial read does.
func (s *csvSink) recode(worker int, col *csvChunkCol) {
	for len(s.global) <= worker {
		s.global, s.ident = append(s.global, nil), append(s.ident, true)
	}
	g := s.global[worker]
	for _, v := range col.fresh {
		code := s.str.intern(v)
		s.ident[worker] = s.ident[worker] && code == int32(len(g))
		g = append(g, code)
	}
	s.global[worker] = g
	if s.ident[worker] {
		return
	}
	for i, c := range col.codes {
		col.codes[i] = g[c]
	}
}

// table lays the merged columns out, or returns the first bad cell.
func (p *csvParser) table() (*Table, error) {
	if p.bad != nil {
		return nil, p.bad
	}
	for i := range p.sinks {
		switch s := &p.sinks[i]; {
		case s.str != nil:
			s.str.packed, s.str.frozen = packBlocks(s.codes.blocks, len(s.str.dict)), true
			s.codes = colBuf[int32]{}
		case s.num != nil:
			s.num.vals = s.vals.flatten()
			s.num.invalidate()
		}
	}
	return &Table{schema: p.sch, cols: p.cols, nrows: p.rows}, nil
}

// colBuf holds a column as the blocks its chunks were parsed into, so
// it is laid out once, at its exact size.
type colBuf[T any] struct {
	blocks [][]T
	n      int // values in blocks
}

func (b *colBuf[T]) add(blk []T) {
	b.blocks = append(b.blocks, blk)
	b.n += len(blk)
}

// flatten returns the values in one slice and empties b, dropping each
// block as soon as it is copied. A single block is returned as is.
func (b *colBuf[T]) flatten() []T {
	if len(b.blocks) == 1 {
		out := b.blocks[0]
		*b = colBuf[T]{}
		return out
	}
	out := make([]T, 0, b.n)
	for i, blk := range b.blocks {
		out = append(out, blk...)
		b.blocks[i] = nil
	}
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

// csvScanner splits a chunk into records and cells. A cell it returns
// points into the chunk or into its quoted-field scratch and stays
// valid only until the next call.
type csvScanner struct {
	data []byte // unscanned rest of the chunk

	full    []byte // current physical line without its terminator
	line    []byte // unscanned suffix of full
	nl      bool   // whether full ended in '\n' (not end of input)
	lineNo  int    // physical line number of full, from 1
	recLine int    // physical line the current record started on

	quoted []byte // decoded quoted field

	// interrupted is the read error that cut the chunk short, if any;
	// a quoted field still open at its end fails with it.
	interrupted error
}

// readLine loads the next physical line. "\r\n" ends a line like "\n",
// and one '\r' just before the end of input is dropped, as in
// encoding/csv. It reports false at the end of the chunk.
func (s *csvScanner) readLine() bool {
	line := s.data
	if len(line) == 0 {
		return false
	}
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, s.data, s.nl = line[:i], line[i+1:], true
	} else {
		s.data, s.nl = nil, false
	}
	s.lineNo++
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	s.full, s.line = line, line
	return true
}

// nextRecord moves to the first line of the next record, skipping blank
// lines. It reports false at the end of the chunk.
func (s *csvScanner) nextRecord() bool {
	for s.readLine() {
		if len(s.line) > 0 {
			s.recLine = s.lineNo
			return true
		}
	}
	return false
}

// header reads the first record as trimmed strings, or returns io.EOF
// if the chunk holds none.
func (s *csvScanner) header() ([]string, error) {
	if !s.nextRecord() {
		return nil, io.EOF
	}
	var names []string
	for more := true; more; {
		cell, m, err := s.field()
		if err != nil {
			return nil, err
		}
		names, more = append(names, string(cell)), m
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
// over several lines; each line break inside it decodes as '\n'. A
// chunk ends inside a quoted field only at the end of input, at a
// failed read, or after an error earlier in the stream, so running out
// of lines is the unterminated-quote error or the read error.
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
			if !s.readLine() {
				if s.interrupted != nil {
					return nil, false, s.interrupted
				}
				return nil, false, s.syntaxErr(nil, csv.ErrQuote)
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

// csvHeaderBytes is the buffer size ReadCSVHeader reads with.
const csvHeaderBytes = 4 << 10

// ReadCSVHeader reads only the header row of a CSV stream, in
// ReadCSV's dialect and trimmed as ReadCSV trims it: the column names
// ReadCSV would match against a schema. It reads from r a few KiB past
// the header's end.
func ReadCSVHeader(r io.Reader) ([]string, error) {
	sp := csvSplitter{r: r, size: csvHeaderBytes}
	_, header, err := sp.header()
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

// csvBlock is the number of rows whose dictionary codes a renderer
// reads per column at a time.
const csvBlock = 1024

// csvWriteRows is the number of rows WriteCSV renders into one buffer.
const csvWriteRows = 8 * csvBlock

// WriteCSV writes the table with a header row. The output is byte for
// byte what encoding/csv's Writer produces for the same records: each
// string-dictionary entry is rendered through a csv.Writer the first
// time a row uses it and copied from then on; ints and floats render as
// Value.Str does, which never needs quoting.
//
// Rows are rendered 8Ki at a time, by up to runtime.GOMAXPROCS(0)
// goroutines, into a few reused buffers that are written to w in order,
// one Write each, the header going with the first rows; a table that
// fits one buffer is rendered on the calling goroutine. A failed Write
// ends the rendering; its error is reported as "table: write csv row R:
// …", R being the first row of the refused buffer, or as "table: write
// csv header: …" for a table without rows.
func (t *Table) WriteCSV(w io.Writer) error {
	return t.writeCSV(w, csvWriteRows, runtime.GOMAXPROCS(0))
}

// csvOut is one buffer of rendered rows [lo, hi).
type csvOut struct {
	buf    []byte
	lo, hi int
}

// writeCSV is WriteCSV with the rows per buffer and the number of
// rendering goroutines given. Buffers are reused once written.
func (t *Table) writeCSV(w io.Writer, chunkRows, workers int) error {
	var q csvQuoter
	header := q.record(t.schema.Names())
	chunkRows = max(chunkRows, 1)
	chunks := max((t.nrows+chunkRows-1)/chunkRows, 1)
	workers = min(workers, chunks)
	var (
		free [][]byte
		rs   = make([]*csvRenderer, max(workers, 1))
		n    int
	)
	next := func() (*csvOut, bool) {
		if n == chunks {
			return nil, false
		}
		o := &csvOut{lo: n * chunkRows, hi: min((n+1)*chunkRows, t.nrows)}
		if k := len(free); k > 0 {
			o.buf, free = free[k-1], free[:k-1]
		}
		if n == 0 {
			o.buf = append(o.buf, header...)
		}
		n++
		return o, true
	}
	render := func(id int, o *csvOut) {
		if rs[id] == nil {
			rs[id] = newCSVRenderer(t)
		}
		o.buf = rs[id].render(o.buf, o.lo, o.hi)
	}
	write := func(o *csvOut) error {
		if _, err := w.Write(o.buf); err != nil {
			if o.hi == 0 {
				return fmt.Errorf("table: write csv header: %w", err)
			}
			return fmt.Errorf("table: write csv row %d: %w", o.lo, err)
		}
		free = append(free, o.buf[:0])
		return nil
	}
	return inOrder(workers, next, render, write)
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

// csvRenderer renders rows of one table. Each rendering goroutine has
// its own, so its quoting scratch and rendered dictionaries are its
// own.
type csvRenderer struct {
	q    csvQuoter
	encs []csvEncoder
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

func newCSVRenderer(t *Table) *csvRenderer {
	r := &csvRenderer{encs: make([]csvEncoder, len(t.cols))}
	for c, col := range t.cols {
		e := &r.encs[c]
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
	return r
}

// render appends rows [lo, hi) to buf, reading dictionary codes
// csvBlock rows at a time. After the first block it grows buf once to
// fit the rest at that block's bytes per row, so a new buffer is not
// regrown by append all the way up.
func (r *csvRenderer) render(buf []byte, lo, hi int) []byte {
	start := len(buf)
	for blo := lo; blo < hi; blo += csvBlock {
		bhi := min(blo+csvBlock, hi)
		if blo > lo && blo-lo == csvBlock {
			perRow := (len(buf)-start)/csvBlock + 1
			buf = slices.Grow(buf, perRow*(hi-blo)*9/8)
		}
		for c := range r.encs {
			if e := &r.encs[c]; e.str != nil {
				e.codes = e.str.codes32(e.codes[:0], blo, bhi)
			}
		}
		for row := blo; row < bhi; row++ {
			for c := range r.encs {
				if c > 0 {
					buf = append(buf, ',')
				}
				e := &r.encs[c]
				switch {
				case e.str != nil:
					code := e.codes[row-blo]
					cell := e.rendered[code]
					if cell == nil {
						cell = bytes.Clone(r.q.quote(e.str.dict[code]))
						e.rendered[code] = cell
					}
					buf = append(buf, cell...)
				case e.num != nil:
					buf = strconv.AppendInt(buf, e.num.vals[row], 10)
				case e.flt != nil:
					buf = strconv.AppendFloat(buf, e.flt.vals[row], 'g', -1, 64)
				default:
					buf = append(buf, r.q.quote(e.other.Value(row).Str())...)
				}
			}
			buf = append(buf, '\n')
		}
	}
	return buf
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
