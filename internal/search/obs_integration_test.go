package search

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"psk/internal/obs"
)

// The telemetry layer promises to be a pure observer: attaching a
// recorder and tracer must not move a single result byte or stats
// counter, and the counters it reports must themselves be deterministic
// wherever the evaluated node set is (every barrier strategy, any
// worker count). Run with -race to exercise the recorder's atomics
// under the parallel engine.

// TestTelemetryDoesNotChangeResults: for every strategy, serial and
// parallel, a run with recorder+tracer attached must be byte-identical
// to the plain run.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	tbl := figure3Table(t)
	for _, p := range []int{1, 2} {
		for _, ts := range []int{0, 4, 10} {
			for _, w := range []int{0, 4} {
				base := kOnlyConfig(t, ts)
				base.P = p
				base.Workers = w
				observed := base
				observed.Recorder = obs.NewRecorder()
				observed.Tracer = obs.NewTracer(&bytes.Buffer{})
				name := fmt.Sprintf("p=%d/TS=%d/w=%d", p, ts, w)

				samA, err := Samarati(tbl, base)
				if err != nil {
					t.Fatal(err)
				}
				samB, err := Samarati(tbl, observed)
				if err != nil {
					t.Fatal(err)
				}
				if samA.Found != samB.Found || !sameStats(samA.Stats, samB.Stats) ||
					samA.Suppressed != samB.Suppressed ||
					(samA.Found && !samA.Node.Equal(samB.Node)) ||
					fmtMasked(samA.Masked) != fmtMasked(samB.Masked) {
					t.Errorf("%s: telemetry changed the Samarati outcome", name)
				}
				if samA.Report != nil {
					t.Errorf("%s: unobserved Samarati run carries a report", name)
				}
				if samB.Report == nil {
					t.Errorf("%s: observed Samarati run lost its report", name)
				} else if err := materializeNested(samB.Report, w == 0); err != nil {
					t.Errorf("%s: Samarati: %v", name, err)
				}

				exA, err := Exhaustive(tbl, base)
				if err != nil {
					t.Fatal(err)
				}
				// A fresh recorder, so the report covers this search alone.
				observed.Recorder = obs.NewRecorder()
				exB, err := Exhaustive(tbl, observed)
				if err != nil {
					t.Fatal(err)
				}
				if !sameStats(exA.Stats, exB.Stats) ||
					fmt.Sprint(exA.Satisfying) != fmt.Sprint(exB.Satisfying) ||
					fmtMinimal(exA.Minimal) != fmtMinimal(exB.Minimal) {
					t.Errorf("%s: telemetry changed the Exhaustive outcome", name)
				}
				if err := materializeNested(exB.Report, w == 0); err != nil {
					t.Errorf("%s: Exhaustive: %v", name, err)
				}

				buA, err := BottomUp(tbl, base)
				if err != nil {
					t.Fatal(err)
				}
				buB, err := BottomUp(tbl, observed)
				if err != nil {
					t.Fatal(err)
				}
				if !sameStats(buA.Stats, buB.Stats) ||
					fmtMinimal(buA.Minimal) != fmtMinimal(buB.Minimal) {
					t.Errorf("%s: telemetry changed the BottomUp outcome", name)
				}

				amA, err := AllMinimal(tbl, base)
				if err != nil {
					t.Fatal(err)
				}
				amB, err := AllMinimal(tbl, observed)
				if err != nil {
					t.Fatal(err)
				}
				if !sameStats(amA.Stats, amB.Stats) ||
					fmtMinimal(amA.Minimal) != fmtMinimal(amB.Minimal) {
					t.Errorf("%s: telemetry changed the AllMinimal outcome", name)
				}

				incA, err := Incognito(tbl, base)
				if err != nil {
					t.Fatal(err)
				}
				incB, err := Incognito(tbl, observed)
				if err != nil {
					t.Fatal(err)
				}
				if !sameStats(incA.Stats, incB.Stats) ||
					incA.PrunedBySubsets != incB.PrunedBySubsets ||
					fmtMinimal(incA.Minimal) != fmtMinimal(incB.Minimal) {
					t.Errorf("%s: telemetry changed the Incognito outcome", name)
				}
			}
		}
	}
}

// materializeNested checks where a search's table builds are recorded:
// inside its single PhaseSearch span. On a serial run the builds run
// one after another within that span, so their summed time cannot
// exceed its total.
func materializeNested(rep *obs.Report, serial bool) error {
	search, mat := phaseStat(rep, obs.PhaseSearch), phaseStat(rep, obs.PhaseMaterialize)
	if search.Count != 1 || mat.Count == 0 {
		return fmt.Errorf("%d search spans and %d materializations, want 1 and some", search.Count, mat.Count)
	}
	if serial && mat.TotalNs > search.TotalNs {
		return fmt.Errorf("materialize took %dns, more than the %dns search it nests in", mat.TotalNs, search.TotalNs)
	}
	return nil
}

// TestTelemetryDeterministicCounters: for the barrier strategies (whose
// evaluated node set cannot depend on scheduling), the deterministic
// counter view must be identical between the serial run and any
// parallel run.
func TestTelemetryDeterministicCounters(t *testing.T) {
	tbl := figure3Table(t)
	type runner struct {
		name string
		run  func(Config) (*obs.Report, error)
	}
	runners := []runner{
		{"Exhaustive", func(cfg Config) (*obs.Report, error) {
			r, err := Exhaustive(tbl, cfg)
			return r.Report, err
		}},
		{"BottomUp", func(cfg Config) (*obs.Report, error) {
			r, err := BottomUp(tbl, cfg)
			return r.Report, err
		}},
		{"AllMinimal", func(cfg Config) (*obs.Report, error) {
			r, err := AllMinimal(tbl, cfg)
			return r.Report, err
		}},
		{"Incognito", func(cfg Config) (*obs.Report, error) {
			r, err := Incognito(tbl, cfg)
			return r.Report, err
		}},
	}
	for _, p := range []int{1, 2} {
		for _, ts := range []int{0, 4, 10} {
			base := kOnlyConfig(t, ts)
			base.P = p
			for _, r := range runners {
				serial := base
				serial.Recorder = obs.NewRecorder()
				repS, err := r.run(serial)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{2, 8} {
					par := base
					par.Workers = w
					par.Recorder = obs.NewRecorder()
					repP, err := r.run(par)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(repS.DeterministicCounters(), repP.DeterministicCounters()) {
						t.Errorf("p=%d TS=%d %s w=%d: counters diverged\nserial:   %v\nparallel: %v",
							p, ts, r.name, w, repS.DeterministicCounters(), repP.DeterministicCounters())
					}
				}
			}
		}
	}
}

// TestTraceCountMatchesNodesEvaluated: on the serial path, one JSONL
// event is emitted per evaluated node — no more, no fewer — and the
// trace parses back with a verdict breakdown matching the report's.
func TestTraceCountMatchesNodesEvaluated(t *testing.T) {
	tbl := figure3Table(t)
	for _, ts := range []int{0, 4, 10} {
		cfg := kOnlyConfig(t, ts)
		cfg.P = 2
		cfg.Recorder = obs.NewRecorder()
		var buf bytes.Buffer
		cfg.Tracer = obs.NewTracer(&buf)

		res, err := AllMinimal(tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadEvents(&buf)
		if err != nil {
			t.Fatalf("TS=%d: trace does not parse: %v", ts, err)
		}
		if len(events) != res.Stats.NodesEvaluated {
			t.Errorf("TS=%d: %d trace events, %d nodes evaluated", ts, len(events), res.Stats.NodesEvaluated)
		}
		if got := cfg.Tracer.Events(); got != int64(len(events)) {
			t.Errorf("TS=%d: Events() = %d, parsed %d", ts, got, len(events))
		}
		byVerdict := map[string]int64{}
		for _, ev := range events {
			byVerdict[ev.Verdict]++
			if ev.Worker != 0 {
				t.Errorf("TS=%d: serial trace event on worker %d", ts, ev.Worker)
			}
			if ev.DurationNs < 0 {
				t.Errorf("TS=%d: negative duration %d", ts, ev.DurationNs)
			}
		}
		rep := res.Report
		want := map[string]int64{
			obs.VerdictSatisfied.String():        rep.Nodes.Satisfied,
			obs.VerdictViolated.String():         rep.Nodes.Violated,
			obs.VerdictPrunedCondition1.String(): rep.Nodes.PrunedCondition1,
			obs.VerdictPrunedCondition2.String(): rep.Nodes.PrunedCondition2,
			obs.VerdictOverBudget.String():       rep.Nodes.OverBudget,
			obs.VerdictError.String():            rep.Nodes.Errors,
		}
		for v, n := range want {
			if n == 0 {
				delete(want, v)
			}
		}
		if !reflect.DeepEqual(byVerdict, want) {
			t.Errorf("TS=%d: trace verdicts %v, report %v", ts, byVerdict, want)
		}
	}
}
