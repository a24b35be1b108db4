package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"psk/internal/config"
	"psk/internal/obs"
	"psk/internal/serve"
)

// TestExitCodeAgreement pins the service's exit-code constants and its
// HTTP mapping to the CLI convention: the two layers must never drift,
// or a script watching pskcheck and a client watching pskserve would
// disagree about the same verdict.
func TestExitCodeAgreement(t *testing.T) {
	if serve.ExitOK != ExitOK || serve.ExitViolation != ExitViolation || serve.ExitInputError != ExitInputError {
		t.Fatalf("exit constants drifted: serve (%d,%d,%d) vs cli (%d,%d,%d)",
			serve.ExitOK, serve.ExitViolation, serve.ExitInputError,
			ExitOK, ExitViolation, ExitInputError)
	}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"ok", nil, http.StatusOK},
		{"verdict", fmt.Errorf("policy violated"), http.StatusOK},
		{"input", inputErr(fmt.Errorf("bad csv")), http.StatusBadRequest},
		{"wrapped input", fmt.Errorf("ctx: %w", inputErr(fmt.Errorf("bad"))), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := serve.HTTPStatus(ExitCode(c.err)); got != c.want {
			t.Errorf("%s: HTTPStatus(ExitCode) = %d, want %d", c.name, got, c.want)
		}
	}
	// Unknown exit codes are internal failures, never silent successes.
	if got := serve.HTTPStatus(-1); got != http.StatusInternalServerError {
		t.Errorf("HTTPStatus(-1) = %d, want 500", got)
	}
}

// smokeClient wraps the tiny HTTP vocabulary the smoke test needs.
type smokeClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

func (s *smokeClient) do(method, path string, body any) (int, json.RawMessage) {
	s.t.Helper()
	var rd bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			s.t.Fatal(err)
		}
		rd = *bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, s.base+path, &rd)
	if err != nil {
		s.t.Fatal(err)
	}
	resp, err := s.c.Do(req)
	if err != nil {
		s.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		s.t.Fatal(err)
	}
	return resp.StatusCode, json.RawMessage(buf.Bytes())
}

func (s *smokeClient) submit(req serve.JobRequest) string {
	s.t.Helper()
	status, raw := s.do("POST", "/v1/jobs", req)
	if status != http.StatusAccepted {
		s.t.Fatalf("submit: got %d: %s", status, raw)
	}
	var payload struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil || payload.ID == "" {
		s.t.Fatalf("submit: no id in %s", raw)
	}
	return payload.ID
}

type smokeStatus struct {
	State      string          `json:"state"`
	StopReason string          `json:"stop_reason"`
	ExitCode   *int            `json:"exit_code"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
	Report     json.RawMessage `json:"report"`
}

func (s *smokeClient) pollDone(id string) (int, smokeStatus) {
	s.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, raw := s.do("GET", "/v1/jobs/"+id, nil)
		var st smokeStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			s.t.Fatalf("status %s: %v in %s", id, err, raw)
		}
		if st.State == "queued" || st.State == "running" ||
			(st.State == "cancelled" && st.StopReason == "") {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		return code, st
	}
	s.t.Fatalf("job %s never finished", id)
	return 0, smokeStatus{}
}

func (s *smokeClient) counters() map[string]int64 {
	s.t.Helper()
	_, raw := s.do("GET", "/metrics", nil)
	var m serve.ServiceMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		s.t.Fatalf("metrics: %v in %s", err, raw)
	}
	return m.Counters
}

// TestServeSmoke is the end-to-end gate the CI serve job runs via
// `make serve-smoke`: the real pskserve entry point bound to an
// ephemeral port, driven over real HTTP through the whole contract —
// verdict exit codes, single-flight dedup pinned via /metrics,
// queued-job cancellation with the cancelled StopReason, the per-job
// /metrics scrape byte-equal to the embedded report, and the service's
// telemetry counters equal to a pskanon -metrics-json run of the same
// inputs.
func TestServeSmoke(t *testing.T) {
	stderr := newObsAddrWriter()
	var stdout strings.Builder
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- ServeContext(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, &stdout, stderr)
	}()

	var addr string
	select {
	case addr = <-stderr.addrC:
	case err := <-done:
		t.Fatalf("ServeContext finished before announcing: %v\nstderr: %s", err, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatalf("no listen address announced\nstderr: %s", stderr.String())
	}
	sc := &smokeClient{t: t, base: "http://" + addr, c: &http.Client{Timeout: 30 * time.Second}}

	// Liveness before anything else.
	if code, raw := sc.do("GET", "/healthz", nil); code != 200 || !bytes.Contains(raw, []byte("serving")) {
		t.Fatalf("healthz: %d %s", code, raw)
	}

	// Verdicts over HTTP follow the CLI exit-code convention: both a
	// satisfied and a violated check are 200s, distinguished by exit_code.
	id := sc.submit(serve.JobRequest{
		Kind: serve.KindCheck, CSV: patientsCSV,
		QIs: []string{"Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
	})
	if code, st := sc.pollDone(id); code != 200 || st.ExitCode == nil || *st.ExitCode != ExitOK {
		t.Fatalf("satisfied check: code %d status %+v", code, st)
	}
	id = sc.submit(serve.JobRequest{
		Kind: serve.KindCheck, CSV: patientsCSV,
		QIs: []string{"Age", "ZipCode", "Sex"}, Conf: []string{"Illness"}, K: 3, P: 2,
	})
	if code, st := sc.pollDone(id); code != 200 || st.ExitCode == nil || *st.ExitCode != ExitViolation {
		t.Fatalf("violated check: code %d status %+v", code, st)
	}
	if code, raw := sc.do("POST", "/v1/jobs", serve.JobRequest{Kind: "bogus"}); code != http.StatusBadRequest {
		t.Fatalf("input error: code %d %s", code, raw)
	}

	// Single-flight: concurrent tenants submitting the identical
	// anonymize request get exactly one underlying search.
	job, err := config.Parse([]byte(jobJSON))
	if err != nil {
		t.Fatal(err)
	}
	anonReq := serve.JobRequest{Kind: serve.KindAnonymize, CSV: patientsCSV, Job: job}
	before := sc.counters()
	const tenants = 6
	ids := make([]string, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(anonReq)
			resp, err := sc.c.Post(sc.base+"/v1/jobs", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			var payload struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&payload)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Errorf("tenant %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			ids[i] = payload.ID
		}(i)
	}
	wg.Wait()
	var firstResult string
	for _, id := range ids {
		code, st := sc.pollDone(id)
		if code != 200 || st.State != "done" || st.StopReason != "done" {
			t.Fatalf("anonymize %s: code %d status %+v", id, code, st)
		}
		if firstResult == "" {
			firstResult = string(st.Result)
		} else if firstResult != string(st.Result) {
			t.Errorf("tenants read different results for one key")
		}
	}
	after := sc.counters()
	if got := after["searches"] - before["searches"]; got != 1 {
		t.Errorf("single-flight: %d searches for %d identical tenants, want 1", got, tenants)
	}
	if got := (after["coalesced"] - before["coalesced"]) + (after["cache_hits"] - before["cache_hits"]); got != tenants-1 {
		t.Errorf("coalesced+cache_hits delta = %d, want %d", got, tenants-1)
	}

	// Byte-identity: the per-job /metrics scrape is the embedded report.
	_, st := sc.pollDone(ids[0])
	if len(st.Report) == 0 {
		t.Fatal("done job carries no report")
	}
	_, scrape := sc.do("GET", "/v1/jobs/"+ids[0]+"/metrics", nil)
	var embedded bytes.Buffer
	if err := json.Indent(&embedded, st.Report, "", "  "); err != nil {
		t.Fatal(err)
	}
	embedded.WriteByte('\n')
	if !bytes.Equal(embedded.Bytes(), scrape) {
		t.Errorf("per-job /metrics differs from the embedded report:\nscrape %d bytes\nembedded %d bytes",
			len(scrape), embedded.Len())
	}

	// The same run through pskanon -metrics-json must agree on every
	// scheduling-independent counter: one engine, two front doors.
	csvPath, jobPath, dir := writeFixtures(t)
	metricsPath := filepath.Join(dir, "metrics.json")
	var aout, aerr strings.Builder
	if err := Anon([]string{"-in", csvPath, "-job", jobPath, "-out", filepath.Join(dir, "masked.csv"),
		"-metrics-json", metricsPath, "-workers", "1"}, &aout, &aerr); err != nil {
		t.Fatalf("Anon: %v\nstderr: %s", err, aerr.String())
	}
	var serveRep, cliRep obs.Report
	if err := json.Unmarshal(st.Report, &serveRep); err != nil {
		t.Fatal(err)
	}
	if err := unmarshalFile(metricsPath, &cliRep); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serveRep.DeterministicCounters(), cliRep.DeterministicCounters()) {
		t.Errorf("service and CLI runs disagree on deterministic counters:\nserve: %v\ncli:   %v",
			serveRep.DeterministicCounters(), cliRep.DeterministicCounters())
	}

	// Cancellation: park a victim behind a dozen full-lattice searches
	// on the single worker, cancel it while queued, and read the
	// cancelled StopReason. The blockers give the DELETE round trip a
	// margin of many engine runs, not one.
	bigCSV, bigJob := blockerWorkload(t)
	cancelBefore := sc.counters()
	blockers := make([]string, 12)
	for i := range blockers {
		blockers[i] = sc.submit(serve.JobRequest{
			Kind: serve.KindAnonymize, CSV: bigCSV, Job: bigJob, Algorithm: "exhaustive",
			Budget: serve.BudgetRequest{MaxNodes: int64(1_000_000_000 + i)},
		})
	}
	victim := sc.submit(serve.JobRequest{
		Kind: serve.KindAnonymize, CSV: bigCSV, Job: bigJob, Algorithm: "exhaustive",
		Budget: serve.BudgetRequest{MaxNodes: 999_999_999},
	})
	if code, raw := sc.do("DELETE", "/v1/jobs/"+victim, nil); code != 200 {
		t.Fatalf("cancel queued job: %d %s", code, raw)
	}
	if code, _ := sc.do("DELETE", "/v1/jobs/"+victim, nil); code != http.StatusConflict {
		t.Errorf("second cancel: %d, want 409", code)
	}
	if _, st := sc.pollDone(victim); st.State != "cancelled" || st.StopReason != "cancelled" {
		t.Errorf("victim state %q stop %q, want cancelled/cancelled", st.State, st.StopReason)
	}
	for _, id := range blockers {
		if _, st := sc.pollDone(id); st.State != "done" {
			t.Fatalf("blocker %s ended %q: %s", id, st.State, st.Error)
		}
	}
	cancelAfter := sc.counters()
	if got := cancelAfter["searches"] - cancelBefore["searches"]; got != int64(len(blockers)) {
		t.Errorf("cancelled job touched the engine: searches delta %d, want %d", got, len(blockers))
	}
	if cancelAfter["cancelled"] <= cancelBefore["cancelled"] {
		t.Errorf("cancelled counter not bumped: %v -> %v", cancelBefore["cancelled"], cancelAfter["cancelled"])
	}

	// Drain: cancelling the context shuts the entry point down cleanly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeContext: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server never drained")
	}
	if !strings.Contains(stderr.String(), "pskserve: draining") {
		t.Errorf("no drain announcement:\n%s", stderr.String())
	}
}

func unmarshalFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// TestServeDropsStalledClient: pskserve disconnects a client that stops
// halfway through its request headers, without a response, once
// serveReadHeaderTimeout has passed; a slow client cannot pin a
// connection.
func TestServeDropsStalledClient(t *testing.T) {
	t.Parallel()
	stderr := newObsAddrWriter()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ServeContext(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, io.Discard, stderr)
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeContext: %v", err)
		}
	}()
	var addr string
	select {
	case addr = <-stderr.addrC:
	case <-time.After(10 * time.Second):
		t.Fatalf("no listen address announced\nstderr: %s", stderr.String())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/jobs HTTP/1.1\r\nHost: pskserve\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(serveReadHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if n != 0 || err == nil {
		t.Fatalf("stalled client got a response (read %d bytes, err %v)", n, err)
	}
	if el := time.Since(start); el < serveReadHeaderTimeout/2 {
		t.Fatalf("disconnected after %v, well before the %v header deadline", el, serveReadHeaderTimeout)
	}
}

// blockerWorkload is the smoke test's queue-filling search: 60,000 rows
// whose ZipCode has 6,000 distinct values, under a five-step ZipCode
// hierarchy (a 48-node lattice whose low nodes carry thousands of
// groups). One exhaustive search over it outlasts a submission of its
// own CSV, so a dozen of them keep the single worker busy while the
// victim waits in the queue.
func blockerWorkload(t *testing.T) (string, *config.Job) {
	t.Helper()
	var b strings.Builder
	b.WriteString("Age,ZipCode,Sex,Illness\n")
	sexes := [2]string{"M", "F"}
	ills := [4]string{"Flu", "Asthma", "Diabetes", "Hypertension"}
	for i := 0; i < 60000; i++ {
		fmt.Fprintf(&b, "%d,%05d,%s,%s\n", 20+(i*7)%50, (i*7919)%6000, sexes[i%2], ills[(i*5)%4])
	}
	job, err := config.Parse([]byte(`{
  "quasiIdentifiers": ["Age", "ZipCode", "Sex"],
  "confidential": ["Illness"],
  "k": 2, "p": 1, "maxSuppress": 2,
  "types": {"Age": "int"},
  "hierarchies": {
    "Age":     {"type": "interval",
                "levels": [{"name": "decades", "width": 10, "min": 20, "max": 70},
                           {"cuts": [50], "labels": ["<50", ">=50"]},
                           {"labels": ["*"]}]},
    "ZipCode": {"type": "prefixSteps", "width": 5, "suppress": [1, 2, 3, 4, 5]},
    "Sex":     {"type": "flat", "top": "Person"}
  }
}`))
	if err != nil {
		t.Fatal(err)
	}
	return b.String(), job
}
