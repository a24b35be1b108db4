package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

func get(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServerRequiresRecorder(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", nil, nil); err == nil {
		t.Fatal("server accepted a nil recorder")
	}
}

func TestServerEndpoints(t *testing.T) {
	rec := NewRecorder()
	rec.NodeEvaluated(VerdictSatisfied, time.Microsecond)
	rec.NodeEvaluated(VerdictViolated, time.Microsecond)
	rec.AddLatticeNodes(10)
	rec.NoteBest("<A1, M0>", 1)
	sampler := NewSampler(rec, time.Second, 8)
	sampler.Poll()

	srv, err := NewServer("127.0.0.1:0", rec, sampler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	var health map[string]string
	if err := json.Unmarshal(get(t, addr, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["state"] != "running" {
		t.Fatalf("healthz = %v", health)
	}

	var rep Report
	if err := json.Unmarshal(get(t, addr, "/metrics"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Nodes.Evaluated != 2 {
		t.Fatalf("live metrics evaluated = %d", rep.Nodes.Evaluated)
	}

	var prog struct {
		State        string   `json:"state"`
		Progress     Progress `json:"progress"`
		SamplesTaken int      `json:"samples_taken"`
		Samples      []Sample `json:"samples"`
	}
	if err := json.Unmarshal(get(t, addr, "/progress"), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.State != "running" {
		t.Fatalf("progress state = %q", prog.State)
	}
	if prog.Progress.NodesEvaluated != 2 || prog.Progress.LatticeNodes != 10 {
		t.Fatalf("progress = %+v", prog.Progress)
	}
	if prog.Progress.Fraction != 0.2 {
		t.Fatalf("fraction = %v", prog.Progress.Fraction)
	}
	if prog.Progress.BestNode != "<A1, M0>" || prog.Progress.BestHeight != 1 {
		t.Fatalf("best = %q/%d", prog.Progress.BestNode, prog.Progress.BestHeight)
	}
	if prog.SamplesTaken != 1 || len(prog.Samples) != 1 {
		t.Fatalf("samples = %d/%d", prog.SamplesTaken, len(prog.Samples))
	}

	// The pprof mux must be mounted.
	if body := get(t, addr, "/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("pprof cmdline empty")
	}
}

// TestServerFinalize: after Finalize, /metrics must serve the frozen
// report byte-identically to the CLI's -metrics-json encoding, /healthz
// must flip to done, and WaitScraped must observe the scrape.
func TestServerFinalize(t *testing.T) {
	rec := NewRecorder()
	rec.NodeEvaluated(VerdictSatisfied, time.Microsecond)
	srv, err := NewServer("127.0.0.1:0", rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	if srv.Finalized() {
		t.Fatal("finalized before Finalize")
	}
	if srv.WaitScraped(10 * time.Millisecond) {
		t.Fatal("scraped before any finalized scrape")
	}

	rep := rec.Snapshot()
	srv.Finalize(rep)
	if !srv.Finalized() {
		t.Fatal("Finalize did not stick")
	}

	// More recorder activity after Finalize must not leak into /metrics.
	rec.NodeEvaluated(VerdictViolated, time.Microsecond)

	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	got := get(t, addr, "/metrics")
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("finalized /metrics differs from encoder output:\ngot  %d bytes\nwant %d bytes", len(got), want.Len())
	}

	var health map[string]string
	if err := json.Unmarshal(get(t, addr, "/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health["state"] != "done" {
		t.Fatalf("state after finalize = %q", health["state"])
	}
	if !srv.WaitScraped(time.Second) {
		t.Fatal("WaitScraped missed the finalized scrape")
	}
	if srv.WaitScraped(0) {
		t.Fatal("WaitScraped(0) must report false")
	}
}

// TestServerDropsStalledClient: a client that stops halfway through its
// request headers is disconnected, without a response, once
// readHeaderTimeout has passed.
func TestServerDropsStalledClient(t *testing.T) {
	t.Parallel()
	srv, err := NewServer("127.0.0.1:0", NewRecorder(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: obs\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
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
	if el := time.Since(start); el < readHeaderTimeout/2 {
		t.Fatalf("disconnected after %v, well before the %v header deadline", el, readHeaderTimeout)
	}
}
