package main

import (
	"bytes"
	"fmt"
	"strings"

	"psk/internal/dataset"
	"psk/internal/search"
	"psk/internal/table"
)

// ladder is the fixed cycle of (k, p) configurations lattice-100k
// searches; every op runs the next one. The searches are over
// latticeConf: Pay has only two values, so with it in the confidential
// set Condition 1 rejects every p=3 search before the lattice is
// touched.
var ladder = []struct{ k, p int }{
	{5, 2}, {10, 2}, {25, 2}, {50, 2},
	{5, 3}, {10, 3}, {25, 3}, {50, 3},
}

var latticeConf = []string{dataset.CapitalGain, dataset.CapitalLoss, dataset.TaxPeriod}

// latticeTables is the number of independently drawn tables the ladder
// runs over. How many lattice nodes satisfy, and so how much an
// exhaustive search materializes, varies with the drawn data; cycling
// over several draws keeps one seed's figures close to another's.
const latticeTables = 4

// latticeSpec: one op is an exhaustive enumeration of all p-k-minimal
// nodes of a ~100k-row table parsed during set-up.
var latticeSpec = spec{
	name:    "lattice-100k",
	why:     "Exhaustive over all 96 lattice nodes of 97,684-row tables across a k/p ladder: per-node roll-up and verdicts dominate, row passes are small",
	clients: 1,
	cycle:   len(ladder) * latticeTables,
	warmup:  len(ladder),
	setup:   setupLattice,
}

type latticeWL struct {
	tables   []*table.Table
	csvBytes int
	cfgs     []search.Config
	size     int
	// want is the Workers=1 minimal-node set of each (table, ladder
	// entry) pair, indexed like ops.
	want []string
}

func setupLattice(seed int64) (workload, error) {
	w := &latticeWL{}
	schema := dataset.Schema()
	for t := 0; t < latticeTables; t++ {
		gen, err := dataset.GenerateScaled(2, seed*latticeTables+int64(t))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gen.WriteCSV(&buf); err != nil {
			return nil, err
		}
		im, err := table.ReadCSV(bytes.NewReader(buf.Bytes()), &schema)
		if err != nil {
			return nil, err
		}
		w.tables = append(w.tables, im)
		w.csvBytes += buf.Len()
	}
	rows := w.tables[0].NumRows()
	for _, l := range ladder {
		cfg, err := adultConfig(rows, l.k, l.p)
		if err != nil {
			return nil, err
		}
		cfg.Confidential = latticeConf
		w.cfgs = append(w.cfgs, cfg)
	}
	var err error
	if w.size, err = latticeSize(w.cfgs[0]); err != nil {
		return nil, err
	}
	return w, nil
}

// at returns op i's table and configuration: the ladder cycles fastest.
func (w *latticeWL) at(i int) (*table.Table, search.Config) {
	i %= len(w.cfgs) * len(w.tables)
	return w.tables[i/len(w.cfgs)], w.cfgs[i%len(w.cfgs)]
}

// minimalSet renders an exhaustive result's p-k-minimal nodes with their
// suppression and released row counts.
func minimalSet(res search.ExhaustiveResult) string {
	var b strings.Builder
	for _, m := range res.Minimal {
		fmt.Fprintf(&b, "%v/%d/%d ", m.Node, m.Suppressed, m.Masked.NumRows())
	}
	return b.String()
}

// prepare computes every (table, ladder entry) pair's reference minimal
// set on the serial (Workers=1) evaluation path.
func (w *latticeWL) prepare() error {
	w.want = w.want[:0]
	for i := 0; i < len(w.cfgs)*len(w.tables); i++ {
		im, cfg := w.at(i)
		cfg.Workers = 1
		res, err := search.Exhaustive(im, cfg)
		if err != nil {
			return err
		}
		if len(res.Minimal) == 0 {
			return fmt.Errorf("k=%d p=%d: no p-k-minimal node", cfg.K, cfg.P)
		}
		w.want = append(w.want, minimalSet(res))
	}
	return nil
}

func (w *latticeWL) op(i int, ot opTrace) (func() error, error) {
	im, cfg := w.at(i)
	var res search.ExhaustiveResult
	err := ot.span("search.total", func() (err error) {
		res, err = search.Exhaustive(im, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	countStats(ot, res.Stats)
	return func() error {
		want := w.want[i%len(w.want)]
		if got := minimalSet(res); got != want {
			return wrongf("op %d k=%d p=%d: minimal nodes %s, Workers=1 reference %s", i, cfg.K, cfg.P, got, want)
		}
		return nil
	}, nil
}

// check has nothing left to do: every op was compared with the
// reference as it completed.
func (w *latticeWL) check() error { return nil }

func (w *latticeWL) inputs() inputStamp {
	return inputStamp{Rows: w.tables[0].NumRows(), CSVBytes: w.csvBytes / len(w.tables), LatticeSize: w.size,
		Detail: fmt.Sprintf("%d tables of GenerateScaled(2); Exhaustive over ladder %v (k p), confidential %v, MaxSuppress=%d Workers=%d",
			len(w.tables), ladder, latticeConf, w.cfgs[0].MaxSuppress, w.cfgs[0].Workers)}
}

func (w *latticeWL) close() {}

func (w *latticeWL) replays() int { return len(w.cfgs) }

// replay times ladder entry r's serial search on the first table, then
// replays its exhaustive walk, which must find the reference's minimal
// nodes.
func (w *latticeWL) replay(r int, ot opTrace) error {
	im, serial := w.at(r)
	serial.Workers = 1
	if err := ot.span("search.serial", func() error {
		_, err := search.Exhaustive(im, serial)
		return err
	}); err != nil {
		return err
	}
	rp, err := newReplay(im, serial, ot)
	if err != nil {
		return err
	}
	nodes, err := rp.exhaustive()
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "%v/", n)
	}
	if want := nodesOf(w.want[r]); b.String() != want {
		return fmt.Errorf("k=%d p=%d: replay minimal nodes %s, search %s", serial.K, serial.P, b.String(), want)
	}
	return nil
}

// nodesOf keeps only the node of each minimalSet entry.
func nodesOf(set string) string {
	var b strings.Builder
	for _, e := range strings.Fields(set) {
		b.WriteString(e[:strings.Index(e, "/")+1])
	}
	return b.String()
}
