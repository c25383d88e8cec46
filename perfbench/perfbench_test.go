package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"cqa/internal/core"
	"cqa/internal/fo"
	"cqa/internal/naive"
	"cqa/internal/parse"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricTablesMatchBenchmarkJSON checks that BENCHMARK.json and the
// emitted metric tables name the same metrics with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, emitted unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end-to-end", b.EndToEnd, e2eUnits)
	check("per-layer", b.PerLayer, layerUnits)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}

// TestWorkloadsShort runs every workload at a small size in both modes:
// every metric of BENCHMARK.json must be emitted with its unit, and
// every answer must validate. The tracing overhead is logged.
func TestWorkloadsShort(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 6, trace: trace, blocks: 300,
				setups: 1, outDir: t.TempDir()}
			out, err := workloads[w.Name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if out.failed > 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, out.failed, out.attempted, out.mismatches)
			}
			listed, units := b.EndToEnd, e2eUnits
			if trace {
				listed, units = b.PerLayer, layerUnits
			}
			for _, m := range listed {
				v, ok := out.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				case math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s trace=%v: metric %s is %v", w.Name, trace, m.Name, v)
				case !trace && v == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
				if units[m.Name] != m.Unit {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json %q", w.Name, m.Name, units[m.Name], m.Unit)
				}
			}
			if trace {
				for k, v := range out.stamp {
					if root, ok := strings.CutPrefix(k, "trace_overhead_"); ok {
						t.Logf("%s: tracing overhead on %s requests, recorded vs unrecorded replay: %+.1f%%",
							w.Name, root, 100*v.(float64))
					}
				}
				t.Logf("%s: recorder cost %.0f ns per span, %.1f spans per request",
					w.Name, spanCostNS(), out.stamp["spans_per_request"])
			}
		}
	}
}

// TestOracleProjection checks the oracle's relevance projection and its
// matching decider against evaluation on the whole database.
func TestOracleProjection(t *testing.T) {
	o := newOracle()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := genDB(rng, 12)
		for k := 0; k < 12; k++ {
			for _, src := range []string{
				"Lives('p%d' | t), !Born('p%d' | t), !Likes('p%d', t)",
				"R0('x%d' | a), R1(a | b), R2(b | c), !N('x%d' | a)",
			} {
				q := parse.MustQuery(sprintfAll(src, k))
				got, err := o.certain(q, d)
				if err != nil {
					t.Fatal(err)
				}
				cls, err := core.Classify(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := fo.Eval(d, cls.Rewriting); got != want {
					t.Fatalf("seed %d %s: projected %v, whole %v", seed, q, got, want)
				}
			}
		}
		small := genDB(rng, 5)
		q := parse.MustQuery("P(x | y), !Q(y | x)")
		got, err := o.certain(q, small)
		if err != nil {
			t.Fatal(err)
		}
		if want := naive.IsCertain(q, small); got != want {
			t.Fatalf("seed %d matching oracle %v, repair enumeration %v", seed, got, want)
		}
	}
}

func sprintfAll(format string, k int) string {
	n := 0
	for i := 0; i+1 < len(format); i++ {
		if format[i] == '%' && format[i+1] == 'd' {
			n++
		}
	}
	args := make([]any, n)
	for i := range args {
		args[i] = k
	}
	return fmt.Sprintf(format, args...)
}

// TestSelfTimes checks self time: duration minus the union of the
// children's intervals.
func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the root
		{Name: "d", Start: 12, End: 20, Parent: 1},
	}
	got := r.selfTimes()
	want := []int64{100 - 40 - 10, 30 - 8, 20, 30, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", r.spans[i].Name, got[i], want[i])
		}
	}
}

// spanCostNS measures what recording one child span costs.
func spanCostNS() float64 {
	r := newRecorder()
	const n = 20000
	root := r.request("root", true)
	t := time.Now()
	for i := 0; i < n; i++ {
		root.timed("child", func() {})
	}
	return float64(time.Since(t).Nanoseconds()) / n
}
