package search

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"psk/internal/core"
	"psk/internal/dataset"
	"psk/internal/hierarchy"
	"psk/internal/lattice"
	"psk/internal/obs"
	"psk/internal/table"
)

// adultSample returns a generated Adult-shaped table with the standard
// QI/confidential configuration the budget tests search over.
func adultSample(t testing.TB, n int) (*table.Table, Config) {
	t.Helper()
	src, err := dataset.Generate(n, 2006)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := dataset.Hierarchies()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QIs:           dataset.QIs(),
		Confidential:  dataset.Confidential(),
		Hierarchies:   hs,
		K:             3,
		P:             2,
		MaxSuppress:   10,
		UseConditions: true,
	}
	return src, cfg
}

// strategyRunner adapts each of the five strategies to a common shape
// so every budget behaviour is pinned on all of them.
type strategyRunner struct {
	name string
	run  func(*table.Table, Config) (Stats, StopReason, []MinimalNode, error)
}

func strategies() []strategyRunner {
	return []strategyRunner{
		{"samarati", func(im *table.Table, cfg Config) (Stats, StopReason, []MinimalNode, error) {
			r, err := Samarati(im, cfg)
			var min []MinimalNode
			if r.Found {
				min = []MinimalNode{{Node: r.Node, Masked: r.Masked, Suppressed: r.Suppressed}}
			}
			return r.Stats, r.StopReason, min, err
		}},
		{"exhaustive", func(im *table.Table, cfg Config) (Stats, StopReason, []MinimalNode, error) {
			r, err := Exhaustive(im, cfg)
			return r.Stats, r.StopReason, r.Minimal, err
		}},
		{"bottomup", func(im *table.Table, cfg Config) (Stats, StopReason, []MinimalNode, error) {
			r, err := BottomUp(im, cfg)
			return r.Stats, r.StopReason, r.Minimal, err
		}},
		{"allminimal", func(im *table.Table, cfg Config) (Stats, StopReason, []MinimalNode, error) {
			r, err := AllMinimal(im, cfg)
			return r.Stats, r.StopReason, r.Minimal, err
		}},
		{"incognito", func(im *table.Table, cfg Config) (Stats, StopReason, []MinimalNode, error) {
			r, err := Incognito(im, cfg)
			return r.Stats, r.StopReason, r.Minimal, err
		}},
	}
}

// TestCancelReturnsQuickly pins the tentpole latency contract: after
// Config.Context is cancelled mid-search on Adult, every strategy
// returns within 100ms, with a valid tagged partial result.
func TestCancelReturnsQuickly(t *testing.T) {
	src, base := adultSample(t, 4000)
	for _, s := range strategies() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", s.name, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := base
				cfg.Context = ctx
				cfg.Workers = workers

				type done struct {
					stats  Stats
					reason StopReason
					min    []MinimalNode
					err    error
					at     time.Time
				}
				ch := make(chan done, 1)
				go func() {
					st, reason, min, err := s.run(src, cfg)
					ch <- done{st, reason, min, err, time.Now()}
				}()
				// Let the search get going, then pull the plug.
				time.Sleep(10 * time.Millisecond)
				cancelled := time.Now()
				cancel()
				d := <-ch
				if d.err != nil {
					t.Fatalf("search error: %v", d.err)
				}
				if lag := d.at.Sub(cancelled); lag > 100*time.Millisecond {
					t.Fatalf("returned %v after cancel; want <= 100ms", lag)
				}
				if d.reason != StopCancelled && d.reason != StopDone {
					t.Fatalf("stop reason %v, want cancelled or done", d.reason)
				}
				// Whatever was found must be genuinely satisfying.
				for _, m := range d.min {
					ok, err := core.CheckBasic(m.Masked, cfg.QIs, cfg.Confidential, cfg.P, cfg.K)
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						t.Fatalf("partial result node %v not satisfying", m.Node)
					}
				}
			})
		}
	}
}

// TestNodeBudgetDeterministic pins the tentpole determinism contract:
// for a fixed MaxNodes the partial result — found nodes, masked bytes,
// stats, stop reason — is byte-identical serial vs parallel on every
// strategy.
func TestNodeBudgetDeterministic(t *testing.T) {
	tbl := figure3Table(t)
	for _, s := range strategies() {
		for _, maxNodes := range []int64{1, 2, 3, 5, 8, 13, 21} {
			t.Run(fmt.Sprintf("%s/n%d", s.name, maxNodes), func(t *testing.T) {
				cfg := kOnlyConfig(t, 2)
				cfg.P, cfg.Confidential = 2, []string{"Illness"}
				cfg.Budget.MaxNodes = maxNodes

				serialCfg := cfg
				serialCfg.Workers = 1
				wantStats, wantReason, wantMin, err := s.run(tbl, serialCfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 4, 8} {
					parCfg := cfg
					parCfg.Workers = workers
					gotStats, gotReason, gotMin, err := s.run(tbl, parCfg)
					if err != nil {
						t.Fatal(err)
					}
					if gotReason != wantReason {
						t.Fatalf("w%d stop reason %v, serial %v", workers, gotReason, wantReason)
					}
					if !sameStats(gotStats, wantStats) {
						t.Fatalf("w%d stats %+v, serial %+v", workers, gotStats, wantStats)
					}
					if got, want := fmtMinimalNodes(t, gotMin), fmtMinimalNodes(t, wantMin); got != want {
						t.Fatalf("w%d minimal set:\n%s\nserial:\n%s", workers, got, want)
					}
				}
			})
		}
	}
}

// TestNodeBudgetExhausts pins the budget arithmetic itself: an
// Exhaustive search with MaxNodes below the lattice size consumes
// exactly the budget and reports StopNodeBudget; with the budget at or
// above the lattice size it completes with StopDone.
func TestNodeBudgetExhausts(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 2)
	lat := 6 // (1+1) * (2+1) nodes in the Figure 3 lattice

	cfg.Budget.MaxNodes = 4
	r, err := Exhaustive(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopNodeBudget {
		t.Fatalf("stop reason %v, want node-budget", r.StopReason)
	}
	if r.Stats.NodesEvaluated != 4 {
		t.Fatalf("evaluated %d nodes on a budget of 4", r.Stats.NodesEvaluated)
	}

	cfg.Budget.MaxNodes = int64(lat)
	r, err = Exhaustive(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopDone {
		t.Fatalf("stop reason %v with budget == lattice size, want done", r.StopReason)
	}
	if r.Stats.NodesEvaluated != lat {
		t.Fatalf("evaluated %d of %d nodes", r.Stats.NodesEvaluated, lat)
	}
}

// TestDeadlineStops pins Budget.Deadline: an already-expired deadline
// stops every strategy before it evaluates a single node, without an
// error, and the recorder counts one budget stop.
func TestDeadlineStops(t *testing.T) {
	tbl := figure3Table(t)
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			cfg := kOnlyConfig(t, 2)
			cfg.Budget.Deadline = time.Nanosecond
			cfg.Recorder = obs.NewRecorder()
			time.Sleep(time.Millisecond) // guarantee expiry
			stats, reason, min, err := s.run(tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reason != StopDeadline {
				t.Fatalf("stop reason %v, want deadline", reason)
			}
			if stats.NodesEvaluated != 0 || len(min) != 0 {
				t.Fatalf("expired deadline evaluated %d nodes, found %d", stats.NodesEvaluated, len(min))
			}
			if rep := cfg.Recorder.Snapshot(); rep.BudgetStops != 1 {
				t.Fatalf("BudgetStops = %d, want 1", rep.BudgetStops)
			}
		})
	}
}

// TestPreCancelledContext pins StopCancelled precedence: a context
// cancelled before the search starts stops it at the first checkpoint.
func TestPreCancelledContext(t *testing.T) {
	tbl := figure3Table(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := kOnlyConfig(t, 2)
	cfg.Context = ctx
	r, err := Samarati(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopCancelled {
		t.Fatalf("stop reason %v, want cancelled", r.StopReason)
	}
	if r.Found || r.Stats.NodesEvaluated != 0 {
		t.Fatalf("pre-cancelled search evaluated %d nodes, found=%v", r.Stats.NodesEvaluated, r.Found)
	}
}

// TestMemBudgetStops pins Budget.MaxCacheBytes on the roll-up
// ablation, where every evaluated node's generalized columns land in
// the cache during the walk: a 1-byte cap trips StopMemBudget as soon
// as the first column does, and the search still returns cleanly.
func TestMemBudgetStops(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 2)
	cfg.DisableRollup = true
	cfg.Budget.MaxCacheBytes = 1
	r, err := Exhaustive(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopMemBudget {
		t.Fatalf("stop reason %v, want mem-budget", r.StopReason)
	}
	// The bottom node generalizes nothing, so at least it evaluates;
	// the cap must bite before the full lattice does.
	if r.Stats.NodesEvaluated == 0 || r.Stats.NodesEvaluated >= 6 {
		t.Fatalf("evaluated %d nodes under a 1-byte cache cap", r.Stats.NodesEvaluated)
	}
}

// TestMemBudgetStopsMaterialize pins Budget.MaxCacheBytes on the
// roll-up path, whose walk over nested hierarchies adds no columns to
// the cache: the cap bites between the materializations of the
// reported nodes. Exhaustive reports StopMemBudget with fewer minimal
// nodes than the uncapped run, each with its masked table; Samarati's
// single reported node is always built, even when the walk itself
// pushed the cache over the cap.
func TestMemBudgetStopsMaterialize(t *testing.T) {
	tbl := figure3Table(t)
	cfg := kOnlyConfig(t, 2)
	cfg.Workers = 1
	full, err := Exhaustive(tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Minimal) < 2 {
		t.Fatalf("uncapped run found %d minimal nodes, want >= 2", len(full.Minimal))
	}
	capped := cfg
	capped.Budget.MaxCacheBytes = 1
	r, err := Exhaustive(tbl, capped)
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopMemBudget {
		t.Fatalf("stop reason %v, want mem-budget", r.StopReason)
	}
	if r.Stats.NodesEvaluated != full.Stats.NodesEvaluated {
		t.Fatalf("capped walk evaluated %d nodes, uncapped %d", r.Stats.NodesEvaluated, full.Stats.NodesEvaluated)
	}
	if len(r.Minimal) == 0 || len(r.Minimal) >= len(full.Minimal) {
		t.Fatalf("capped run returned %d minimal nodes, uncapped %d", len(r.Minimal), len(full.Minimal))
	}
	for _, m := range r.Minimal {
		if m.Masked == nil {
			t.Fatalf("minimal node %v returned without its masked table", m.Node)
		}
	}

	sr, err := Samarati(tbl, capped)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Found || sr.Masked == nil {
		t.Fatalf("capped Samarati found=%v masked=%v, want its node built", sr.Found, sr.Masked != nil)
	}

	// A non-nested hierarchy makes the roll-up fall back to row scans,
	// whose columns do land in the cache during the walk. Here Samarati
	// finds <0,1>, and then its frontier pass scans <0,2> from rows and
	// trips the cap before the found node's table is built.
	hs, err := hierarchy.NewSet(hierarchy.NewFlat("Sex"), crossingZip{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range strategies() {
		t.Run("non-nested/"+s.name, func(t *testing.T) {
			cfg := kOnlyConfig(t, 1)
			cfg.K = 2
			cfg.Hierarchies = hs
			cfg.Frontier.Enabled = true
			cfg.Budget.MaxCacheBytes = 1
			_, reason, min, err := s.run(tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reason != StopMemBudget {
				t.Fatalf("stop reason %v, want mem-budget", reason)
			}
			if len(min) == 0 {
				t.Fatal("no node returned")
			}
			for _, m := range min {
				if m.Masked == nil {
					t.Fatalf("node %v returned without its masked table", m.Node)
				}
			}
		})
	}
}

// TestMaterializeGate pins which limits stop the table builds after a
// walk: with the search cancelled or past its deadline only the first
// reported node is built, while a spent node budget, which only bounds
// the walk, leaves every reported node its table.
func TestMaterializeGate(t *testing.T) {
	tbl := figure3Table(t)
	nodes := []lattice.Node{{0, 1}, {1, 0}, {1, 1}}
	cases := []struct {
		name  string
		limit func(*limiter)
		want  int
		stop  StopReason
	}{
		{"cancelled", func(l *limiter) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			l.ctx = ctx
		}, 1, StopCancelled},
		{"deadline", func(l *limiter) { l.deadline = time.Now().Add(-time.Second) }, 1, StopDeadline},
		{"node-budget", func(l *limiter) { l.trip(StopNodeBudget) }, len(nodes), StopNodeBudget},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				cfg := kOnlyConfig(t, 10)
				cfg.Workers = workers
				m, err := cfg.validate()
				if err != nil {
					t.Fatal(err)
				}
				lim := &limiter{}
				e := newLimitedEvaluator(tbl, m, nil, cfg, core.Bounds{}, lim)
				c.limit(lim)
				hits := make([]MinimalNode, len(nodes))
				for i, n := range nodes {
					hits[i].Node = n
				}
				built, err := e.materializeReported(hits)
				if err != nil {
					t.Fatal(err)
				}
				if len(built) != c.want || lim.stopReason() != c.stop {
					t.Fatalf("built %d tables, stop %v; want %d, %v", len(built), lim.stopReason(), c.want, c.stop)
				}
				if !built[0].Node.Equal(nodes[0]) {
					t.Fatalf("first built node %v, want %v", built[0].Node, nodes[0])
				}
				for _, h := range built {
					if h.Masked == nil {
						t.Fatalf("node %v returned without its masked table", h.Node)
					}
				}
			})
		}
	}
}

// panicPolicy is a deliberately broken custom policy: it panics on
// every evaluation, standing in for a buggy user Policy.
type panicPolicy struct{}

func (panicPolicy) Name() string        { return "panic-policy" }
func (panicPolicy) ConfAttrs() []string { return nil }
func (panicPolicy) Evaluate(core.StatsView) (core.Result, error) {
	panic("deliberate test panic")
}

// TestWorkerPanicRecovered pins the tentpole resilience contract: a
// panicking node evaluation surfaces as an error (not a crash) on
// every strategy at several worker counts, the recorder counts the
// recoveries, and the same table remains searchable afterwards.
func TestWorkerPanicRecovered(t *testing.T) {
	tbl := figure3Table(t)
	for _, s := range strategies() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", s.name, workers), func(t *testing.T) {
				cfg := kOnlyConfig(t, 2)
				cfg.Policy = panicPolicy{}
				cfg.Workers = workers
				cfg.Recorder = obs.NewRecorder()
				_, _, _, err := s.run(tbl, cfg)
				if err == nil {
					t.Fatal("panicking policy produced no error")
				}
				if !strings.Contains(err.Error(), "panic recovered") {
					t.Fatalf("error %q does not mention the recovered panic", err)
				}
				if rep := cfg.Recorder.Snapshot(); rep.PanicsRecovered == 0 {
					t.Fatal("PanicsRecovered = 0 after a recovered panic")
				}

				// The search machinery must still be usable: same table,
				// sane config, fresh run.
				good := kOnlyConfig(t, 2)
				good.Workers = workers
				if _, reason, min, err := s.run(tbl, good); err != nil || reason != StopDone || len(min) == 0 {
					t.Fatalf("follow-up search: err=%v reason=%v found=%d", err, reason, len(min))
				}
			})
		}
	}
}

// TestBudgetlessPathUnchanged guards the facade contract that the
// budget machinery is invisible when unused: no limiter is built and
// results carry StopDone.
func TestBudgetlessPathUnchanged(t *testing.T) {
	if (Config{}).newLimiter() != nil {
		t.Fatal("zero config built a limiter")
	}
	tbl := figure3Table(t)
	r, err := Samarati(tbl, kOnlyConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.StopReason != StopDone {
		t.Fatalf("unbudgeted search stop reason %v", r.StopReason)
	}
	if StopDone.Partial() || !StopCancelled.Partial() {
		t.Fatal("Partial() misclassifies")
	}
}

// fmtMinimalNodes renders a minimal set — nodes, suppression counts
// and full masked-table bytes — for byte-identical comparison.
func fmtMinimalNodes(t testing.TB, min []MinimalNode) string {
	t.Helper()
	var b strings.Builder
	for _, m := range min {
		fmt.Fprintf(&b, "node %v suppressed %d\n", m.Node, m.Suppressed)
		if m.Masked != nil {
			var csv strings.Builder
			if err := m.Masked.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			b.WriteString(csv.String())
		}
	}
	return b.String()
}
