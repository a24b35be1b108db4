package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psk/internal/config"
	"psk/internal/dataset"
	"psk/internal/hierarchy"
	"psk/internal/search"
	"psk/internal/serve"
	"psk/internal/table"
)

// serviceClients is the number of closed-loop clients; each waits on its
// job before submitting the next, as pskserve callers do.
const serviceClients = 2

// hotK are the k values of the hot set: eight configurations that become
// result-cache hits after the warm-up.
var hotK = []int{5, 8, 10, 12, 15, 20, 25, 30}

// serviceSpec: one op is one anonymize job, from the POST to the status
// poll that carries its result.
var serviceSpec = spec{
	name:    "service-mix",
	why:     "2 closed-loop clients submit anonymize jobs over a 97,684-row CSV to an in-process pskserve: 60% result-cache hits, 40% cold searches",
	clients: serviceClients,
	cycle:   1,
	setup:   setupService,
}

// variant is one job configuration.
type variant struct {
	k, maxSuppress int
	hot            bool
}

func (v variant) key() string { return fmt.Sprintf("k=%d,maxSuppress=%d", v.k, v.maxSuppress) }

type serviceWL struct {
	seed     int64
	rows     int
	csv      []byte
	csvJSON  []byte
	srv      *serve.Server
	ts       *httptest.Server
	client   *http.Client
	before   map[string]int64
	polls    atomic.Int64
	jobs     atomic.Int64
	baseSupp int

	mu sync.Mutex
	// results holds the first result body of every variant; later jobs of
	// the variant must return the same bytes.
	results map[string]resultOf
}

type resultOf struct {
	v   variant
	raw []byte
}

func setupService(seed int64) (workload, error) {
	t, err := dataset.GenerateScaled(2, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		return nil, err
	}
	csvJSON, err := json.Marshal(buf.String())
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Workers: serviceClients})
	w := &serviceWL{
		seed: seed, rows: t.NumRows(), csv: buf.Bytes(), csvJSON: csvJSON, baseSupp: t.NumRows() / 100,
		srv: srv, ts: httptest.NewServer(srv.Handler()),
		client:  &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}},
		results: make(map[string]resultOf),
	}
	// Warm the server: the first job parses the shared dataset, and every
	// hot configuration lands in the result cache.
	for _, k := range hotK {
		if _, err := w.job(variant{k: k, maxSuppress: w.baseSupp, hot: true}, opTrace{}); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

// hotShare is the probability that an op draws from the hot set. Above
// one half, the median op is a cache hit and the 90th percentile a cold
// search; at exactly one half the median would sit on the edge between
// the two modes and flip from seed to seed.
const hotShare = 0.6

// draw is op i's configuration: a seeded coin picks the hot set or a
// fresh (k, maxSuppress) pair no earlier op used.
func (w *serviceWL) draw(i int) variant {
	r := rand.New(rand.NewSource(w.seed*1_000_003 + int64(i)))
	if r.Float64() < hotShare {
		return variant{k: hotK[r.Intn(len(hotK))], maxSuppress: w.baseSupp, hot: true}
	}
	return variant{k: hotK[r.Intn(len(hotK))], maxSuppress: w.baseSupp + 1 + i}
}

// body builds the request body; the CSV's JSON encoding is reused.
func (w *serviceWL) body(v variant) ([]byte, error) {
	job, err := json.Marshal(adultJob(v.k, v.maxSuppress))
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(w.csvJSON)+len(job)+64)
	b = append(b, `{"kind":"anonymize","csv":`...)
	b = append(b, w.csvJSON...)
	b = append(b, `,"job":`...)
	b = append(b, job...)
	return append(b, '}'), nil
}

// adultJob is the Adult job description with the hierarchies of
// dataset.Hierarchies written out inline.
func adultJob(k, maxSuppress int) config.Job {
	maritalChains := map[string][]string{}
	for _, v := range []string{"Never-married", "Divorced", "Separated", "Widowed"} {
		maritalChains[v] = []string{"Single", hierarchy.Suppressed}
	}
	for _, v := range []string{"Married-civ-spouse", "Married-spouse-absent", "Married-AF-spouse"} {
		maritalChains[v] = []string{"Married", hierarchy.Suppressed}
	}
	return config.Job{
		QuasiIdentifiers: dataset.QIs(),
		Confidential:     dataset.Confidential(),
		K:                k,
		P:                2,
		MaxSuppress:      maxSuppress,
		Types: map[string]string{
			dataset.Age: "int", dataset.CapitalGain: "int", dataset.CapitalLoss: "int", dataset.TaxPeriod: "int",
		},
		Hierarchies: map[string]config.HierarchySpec{
			dataset.Age: {Type: "interval", Levels: []config.IntervalLevelSpec{
				{Name: "10-years ranges", Width: 10, Min: 17, Max: 90},
				{Name: "<50 and >=50 groups", Cuts: []int64{50}, Labels: []string{"<50", ">=50"}},
				{Name: "one group", Labels: []string{hierarchy.Suppressed}},
			}},
			dataset.MaritalStatus: {Type: "tree", Chains: maritalChains},
			dataset.Race: {Type: "tree", Chains: map[string][]string{
				"White":              {"White", "White", hierarchy.Suppressed},
				"Black":              {"Black", "Other", hierarchy.Suppressed},
				"Asian-Pac-Islander": {"Other", "Other", hierarchy.Suppressed},
				"Amer-Indian-Eskimo": {"Other", "Other", hierarchy.Suppressed},
				"Other":              {"Other", "Other", hierarchy.Suppressed},
			}},
			dataset.Sex: {Type: "flat"},
		},
	}
}

type jobStatus struct {
	State    string          `json:"state"`
	ExitCode *int            `json:"exit_code"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

// job submits one variant and polls its status every millisecond until
// it leaves the queued and running states; the result must be done with
// exit code 0 and byte-identical to earlier results of the variant.
func (w *serviceWL) job(v variant, ot opTrace) (polls int, err error) {
	body, err := w.body(v)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := w.client.Post(w.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var sub struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	submitted := time.Now()
	ot.record("serve.submit", t0, submitted)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return 0, refusedf("submit refused: %s", sub.Error)
	case resp.StatusCode != http.StatusAccepted:
		return 0, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, sub.Error)
	case err != nil:
		return 0, fmt.Errorf("submit response: %w", err)
	}

	for {
		t := time.Now()
		code, st, err := w.status(sub.ID)
		if err != nil {
			return polls, err
		}
		polls++
		if st.State == "queued" || st.State == "running" {
			time.Sleep(time.Millisecond)
			continue
		}
		ot.record("serve.wait_run", submitted, t)
		ot.record("serve.status", t, time.Now())
		if code != http.StatusOK || st.State != "done" || st.ExitCode == nil || *st.ExitCode != 0 || len(st.Result) == 0 {
			return polls, wrongf("job %s (%s): HTTP %d state %s exit %v error %q", sub.ID, v.key(), code, st.State, st.ExitCode, st.Error)
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		if prev, ok := w.results[v.key()]; ok && !bytes.Equal(prev.raw, st.Result) {
			return polls, wrongf("job %s (%s): result differs from an earlier job's", sub.ID, v.key())
		} else if !ok {
			w.results[v.key()] = resultOf{v: v, raw: append([]byte(nil), st.Result...)}
		}
		return polls, nil
	}
}

func (w *serviceWL) status(id string) (int, jobStatus, error) {
	var st jobStatus
	resp, err := w.client.Get(w.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		return 0, st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return resp.StatusCode, st, fmt.Errorf("status of %s: %w", id, err)
	}
	return resp.StatusCode, st, nil
}

func (w *serviceWL) counters() (map[string]int64, error) {
	resp, err := w.client.Get(w.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serve.ServiceMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m.Counters, nil
}

// prepare snapshots the service counters before the timed phase.
func (w *serviceWL) prepare() (err error) {
	w.before, err = w.counters()
	return err
}

func (w *serviceWL) op(i int, ot opTrace) (func() error, error) {
	polls, err := w.job(w.draw(i), ot)
	w.polls.Add(int64(polls))
	w.jobs.Add(1)
	return nil, err
}

// check compares the hot set's results, and a few fresh ones, with a
// direct search.Samarati over the same rows.
func (w *serviceWL) check() error {
	schema := dataset.Schema()
	im, err := table.ReadCSV(bytes.NewReader(w.csv), &schema)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(w.results))
	for k := range w.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fresh := 0
	for _, k := range keys {
		r := w.results[k]
		if !r.v.hot {
			if fresh++; fresh > 4 {
				continue
			}
		}
		cfg, err := adultConfig(w.rows, r.v.k, 2)
		if err != nil {
			return err
		}
		cfg.MaxSuppress = r.v.maxSuppress
		want, err := search.Samarati(im, cfg)
		if err != nil {
			return err
		}
		var got struct {
			Anonymize *serve.AnonymizeResult `json:"anonymize"`
		}
		if err := json.Unmarshal(r.raw, &got); err != nil {
			return err
		}
		a := got.Anonymize
		if a == nil || !want.Found || a.Node != fmt.Sprint(want.Node) || a.Suppressed != want.Suppressed || a.ReleasedRows != want.Masked.NumRows() {
			return fmt.Errorf("%s: service result %+v, direct search node %v suppressed %d released %d", k, a, want.Node, want.Suppressed, want.Masked.NumRows())
		}
	}
	return nil
}

// layerCounts derives the service's per-layer ratios from the /metrics
// counters the timed phase moved, and the client's poll count.
func (w *serviceWL) layerCounts() map[string]float64 {
	after, err := w.counters()
	if err != nil || w.before == nil {
		return nil
	}
	d := func(k string) float64 { return float64(after[k] - w.before[k]) }
	out := map[string]float64{"serve.polls_per_job": float64(w.polls.Load()) / float64(max(w.jobs.Load(), 1))}
	if sub := d("submitted"); sub > 0 {
		out["serve.cache_hit_frac"] = d("cache_hits") / sub
		out["serve.coalesced_frac"] = d("coalesced") / sub
		out["serve.rejected_frac"] = (d("rejected_input") + d("rejected_queue_full") + d("rejected_draining")) / sub
	}
	return out
}

func (w *serviceWL) inputs() inputStamp {
	return inputStamp{Rows: w.rows, CSVBytes: len(w.csv), LatticeSize: 96,
		Detail: fmt.Sprintf("GenerateScaled(2); %d-byte JSON bodies; %d clients polling every 1ms; hot k=%v at MaxSuppress=%d, fresh MaxSuppress>%d; serve Workers=%d",
			len(w.csvJSON), serviceClients, hotK, w.baseSupp, w.baseSupp, serviceClients)}
}

func (w *serviceWL) close() {
	w.client.CloseIdleConnections()
	w.ts.Close()
	w.srv.Close()
}
