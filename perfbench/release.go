package main

import (
	"bytes"
	"fmt"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/lattice"
	"psk/internal/search"
	"psk/internal/table"
)

// releaseSpec: one op is a full release from in-memory CSV bytes to
// in-memory CSV bytes on the ~1M-row Adult shape.
var releaseSpec = spec{
	name:    "release-1m",
	why:     "full CSV-to-CSV Samarati release of 976,840 rows: row passes (parse, encode, bounds, base scan, level maps, materialize) dominate",
	clients: 1,
	cycle:   1,
	warmup:  1,
	setup:   setupRelease,
}

type release struct {
	csv    []byte
	schema table.Schema
	cfg    search.Config
	rows   int
	size   int

	// first is the first op's output, node and suppression count; every
	// later op must reproduce the output byte for byte.
	first      []byte
	node       lattice.Node
	suppressed int
}

func setupRelease(seed int64) (workload, error) {
	t, err := dataset.GenerateScaled(20, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return nil, err
	}
	cfg, err := adultConfig(t.NumRows(), 10, 2)
	if err != nil {
		return nil, err
	}
	size, err := latticeSize(cfg)
	if err != nil {
		return nil, err
	}
	return &release{csv: buf.Bytes(), schema: dataset.Schema(), cfg: cfg, rows: t.NumRows(), size: size}, nil
}

func (w *release) op(_ int, ot opTrace) (func() error, error) {
	var im *table.Table
	err := ot.span("table.csv_parse", func() (err error) {
		im, err = table.ReadCSV(bytes.NewReader(w.csv), &w.schema)
		return err
	})
	if err != nil {
		return nil, err
	}
	var res search.Result
	err = ot.span("search.total", func() (err error) {
		res, err = search.Samarati(im, w.cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !res.Found {
		return nil, wrongf("release found no generalization")
	}
	countStats(ot, res.Stats)
	out := bytes.NewBuffer(make([]byte, 0, len(w.csv)))
	if err := ot.span("table.csv_encode", func() error { return res.Masked.WriteCSV(out) }); err != nil {
		return nil, err
	}
	return func() error {
		if w.first == nil {
			w.first, w.node, w.suppressed = out.Bytes(), res.Node.Clone(), res.Suppressed
			return w.checkFirst()
		}
		if !bytes.Equal(out.Bytes(), w.first) {
			return wrongf("release output at node %v differs from the first op's", res.Node)
		}
		return nil
	}, nil
}

// checkFirst re-parses the first op's output, runs the paper's
// Algorithm 1 on it and checks the suppression against the budget.
func (w *release) checkFirst() error {
	mm, err := table.ReadCSV(bytes.NewReader(w.first), nil)
	if err != nil {
		return wrongf("re-parse release: %v", err)
	}
	ok, err := core.CheckBasic(mm, w.cfg.QIs, w.cfg.Confidential, w.cfg.P, w.cfg.K)
	if err != nil {
		return wrongf("check release: %v", err)
	}
	if !ok {
		return wrongf("released table is not %d-sensitive %d-anonymous", w.cfg.P, w.cfg.K)
	}
	if sup := w.rows - mm.NumRows(); sup != w.suppressed || sup > w.cfg.MaxSuppress {
		return wrongf("release removed %d rows, search reported %d, budget %d", sup, w.suppressed, w.cfg.MaxSuppress)
	}
	return nil
}

// check has nothing left to do: the first output was checked as it
// completed and every later one was compared with it.
func (w *release) check() error { return nil }

func (w *release) inputs() inputStamp {
	return inputStamp{Rows: w.rows, CSVBytes: len(w.csv), LatticeSize: w.size,
		Detail: fmt.Sprintf("GenerateScaled(20); Samarati K=%d P=%d MaxSuppress=%d Workers=%d", w.cfg.K, w.cfg.P, w.cfg.MaxSuppress, w.cfg.Workers)}
}

func (w *release) close() {}

func (w *release) replays() int { return 2 }

// replay parses the input again, times a serial search on it, and
// replays the search's layers; the walk must end at the node the real
// search found.
func (w *release) replay(_ int, ot opTrace) error {
	im, err := table.ReadCSV(bytes.NewReader(w.csv), &w.schema)
	if err != nil {
		return err
	}
	serial := w.cfg
	serial.Workers = 1
	if err := ot.span("search.serial", func() error {
		_, err := search.Samarati(im, serial)
		return err
	}); err != nil {
		return err
	}
	rp, err := newReplay(im, serial, ot)
	if err != nil {
		return err
	}
	node, err := rp.samarati()
	if err != nil {
		return err
	}
	if w.node != nil && !node.Equal(w.node) {
		return fmt.Errorf("replay ended at %v, search at %v", node, w.node)
	}
	return nil
}
