// Command perfbench is the repository's serving benchmark: it runs one
// named workload against the real serving stack (server.New and
// server.NewRouter on loopback listeners inside this process, with
// cqad's defaults), checks every answer against an oracle after the
// timed window, and prints every metric by name and unit.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload read-point --seed 1 --seconds 26 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it replays the same seeded operations by calling each
// layer's public functions directly, records spans around those calls,
// and reports per-layer self times. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
// wrong answer makes the command exit 1. See perfbench/METRICS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// e2eUnits and layerUnits list every metric the benchmark emits, with
// its unit; BENCHMARK.json names the same sets (the self-test checks).
var e2eUnits = map[string]string{
	"setup_s":           "s",
	"heap_mb":           "MB",
	"read_rps":          "1/s",
	"read_p50_ms":       "ms",
	"read_p95_ms":       "ms",
	"write_p50_ms":      "ms",
	"fresh_read_p50_ms": "ms",
	"flip_lag_p50_ms":   "ms",
}

var layerUnits = map[string]string{
	"server.decode_us":              "us",
	"server.encode_us":              "us",
	"server.transport_us":           "us",
	"parse.query_us":                "us",
	"parse.facts_us":                "us",
	"engine.plan_cache_hit_ratio":   "ratio",
	"engine.result_cache_hit_ratio": "ratio",
	"engine.apply_write_us":         "us",
	"core.prepare_us":               "us",
	"fo.eval_warm_us":               "us",
	"fo.eval_fresh_us":              "us",
	"planner.decide_us":             "us",
	"naive.eval_us":                 "us",
	"db.load_s":                     "s",
	"db.intern_us":                  "us",
	"db.merge_us":                   "us",
	"store.insert_us":               "us",
	"store.fsync_us":                "us",
	"store.wal_bytes_per_user_byte": "ratio",
	"delta.decide_us":               "us",
	"delta.recheck_all_us":          "us",
	"delta.skip_ratio":              "ratio",
	"delta.reevals_per_write":       "count",
	"shard.gather_us":               "us",
	"shard.decode_us":               "us",
	"shard.gather_bytes":            "bytes",
	"shard.rpcs_per_read":           "count",
	"gen.late_p95_ms":               "ms",
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	blocks   int    // main database size; 0 selects the workload's
	outDir   string // spans and scratch stores
	setups   int    // set-ups per run; setup_s is their median
}

// outcome is what a workload run produces.
type outcome struct {
	metrics    map[string]float64
	attempted  int
	failed     int
	mismatches []string
	stamp      map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, stamp: map[string]any{}}
}

func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"read-point":  runReadPoint,
	"write-watch": runWriteWatch,
	"router-join": runRouterJoin,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: read-point, write-watch or router-join")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 26, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 replays the operations traced and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.setups = 5
	cfg.outDir = filepath.Join(".bench_build", "perfbench")
	run, ok := workloads[cfg.workload]
	if !ok || flag.NArg() != 0 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload read-point|write-watch|router-join and positive --seconds")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

// report prints the run stamp and the result line.
func report(cfg config, out *outcome) error {
	units := e2eUnits
	if cfg.trace {
		units = layerUnits
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for n, unit := range units {
		v, ok := out.metrics[n]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, n)
		}
		res.Metrics[n] = metric{Value: v, Unit: unit}
	}
	for _, m := range out.mismatches {
		fmt.Println("mismatch:", m)
	}
	stamp := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
		"commit":      sourceRevision(),
		"date":        time.Now().UTC().Format(time.RFC3339),
		"failed_frac": ratio(float64(out.failed), float64(out.attempted)),
	}
	for k, v := range out.stamp {
		stamp[k] = v
	}
	sb, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		return err
	}
	fmt.Println(string(sb))
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rb))
	return nil
}
