package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny shrinks a run to one set-up, a one-second phase and one round.
func tiny(seed int64, traced bool) opts {
	return opts{seed: seed, seconds: time.Second, traced: traced, setups: 1, rounds: 1}
}

// TestEveryMetricEmitted runs every workload at a tiny size, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, with the units it gives, and answers correctly.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloads[sw.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := execute(context.Background(), w, tiny(3, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (%v)", w.name, traced, res.Correct, res.Attempted, res.Failed, res.firstErr)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestTamperedAnswerRejected corrupts one reference answer and checks that
// the correctness gate counts the mismatch and makes the command fail.
func TestTamperedAnswerRejected(t *testing.T) {
	for _, name := range []string{"tpch_cold", "ingest_mixed"} {
		o := tiny(5, false)
		o.tamper = true
		res, err := execute(context.Background(), workloads[name], o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Fatalf("%s: tampered reference accepted: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
		var stdout, stderr bytes.Buffer
		if code := report(name, res, &stdout, &stderr); code == 0 {
			t.Errorf("%s: exit code 0 on a wrong answer", name)
		}
		if !strings.Contains(stdout.String(), `"correct":false`) {
			t.Errorf("%s: result line %q does not report correct=false", name, stdout.String())
		}
	}
}

// TestTailsHaveTenSamplesBeyond checks the sample floors that keep at least
// ten samples beyond each tail percentile.
func TestTailsHaveTenSamplesBeyond(t *testing.T) {
	beyond := func(n int, p float64) int { return n - int(math.Ceil(p/100*float64(n))) }
	for _, w := range workloads {
		n := 22 * w.minRounds * w.streams
		if w.ingest {
			n = len(roundQueries) * w.minRounds
		}
		if b := beyond(n, w.tailPct); b < 10 {
			t.Errorf("%s: %d query samples leave %d beyond p%v", w.name, n, b, w.tailPct)
		}
		if b := beyond(minCommits, w.commitTailPct); b < 10 {
			t.Errorf("%s: %d commits leave %d beyond p%v", w.name, minCommits, b, w.commitTailPct)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tpch_cold", "--seconds", "0"},
		{"--workload", "tpch_cold", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]time.Duration{{5, 10}, {0, 3}, {2, 4}, {8, 12}}
	if got := covered(iv); got != 11 {
		t.Errorf("covered = %v, want 11", got)
	}
}
