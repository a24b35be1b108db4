package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the id of the span that caused this one (0 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// count is a number of work items one op handed to a layer, read from a
// public result (search.Stats, the service's /metrics) or counted at
// the call site.
type count struct {
	Op   int     `json:"op"`
	Name string  `json:"name"`
	N    float64 `json:"n"`
}

// tracer keeps spans and counts in memory for the traced run and writes
// them out when the run ends. It is safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	counts []count
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) add(op int, name string, n float64) {
	t.mu.Lock()
	t.counts = append(t.counts, count{Op: op, Name: name, N: n})
	t.mu.Unlock()
}

// opTrace is the handle one op records through. The zero value (an
// untraced op) records nothing and costs a nil check per call.
type opTrace struct {
	t    *tracer
	op   int
	root int
}

// span times fn as a child of the op's root span.
func (o opTrace) span(name string, fn func() error) error {
	if o.t == nil {
		return fn()
	}
	id := o.t.begin(o.op, o.root, name)
	err := fn()
	o.t.end(id)
	return err
}

// record adds a span that has already ended, as a child of the op's
// root span.
func (o opTrace) record(name string, start, end time.Time) {
	if o.t == nil {
		return
	}
	s := span{Parent: o.root, Op: o.op, Name: name, Start: int64(start.Sub(o.t.epoch)), End: int64(end.Sub(o.t.epoch))}
	o.t.mu.Lock()
	s.ID = len(o.t.spans) + 1
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// count records n work items for the op.
func (o opTrace) count(name string, n float64) {
	if o.t != nil {
		o.t.add(o.op, name, n)
	}
}

// perOp sums, per op, the duration in milliseconds of the spans named
// name.
func (t *tracer) perOp(name string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// layerMs is the median over ops of an op's total time in spans named
// name; 0 when no op called into the layer.
func (t *tracer) layerMs(name string) float64 { return median(values(t.perOp(name))) }

// countMedian is the median over ops of an op's total count named name;
// 0 when no op recorded one.
func (t *tracer) countMedian(name string) float64 {
	per := make(map[int]float64)
	for _, c := range t.counts {
		if c.Name == name {
			per[c.Op] += c.N
		}
	}
	return median(values(per))
}

// attributed is the median over op roots named root of the share of the
// root's wall time that its direct child spans cover.
func (t *tracer) attributed(root string) float64 {
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var fracs []float64
	for _, s := range t.spans {
		if s.Name != root || s.End <= s.Start {
			continue
		}
		parent := interval{s.Start, s.End}
		dur := float64(s.End - s.Start)
		fracs = append(fracs, 1-float64(selfTime(parent, children[s.ID]))/dur)
	}
	return median(fracs)
}

// write stores the spans and counts as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, c := range t.counts {
		if err := enc.Encode(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
