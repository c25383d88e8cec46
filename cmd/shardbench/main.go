// Command shardbench measures how the sharded serving tier's read
// throughput scales with shard count on one machine, and records the
// result in BENCH_shard.json.
//
// It boots two real process topologies with internal/shard/chaostest —
// a router over 1 shard server, then a router over -shards shard
// servers, every shard pinned to GOMAXPROCS=1 — and drives each with
// the loadgen phased sharded workload (write → quiesce → read). The
// read phase issues only ground-key queries: pinned single-atom reads
// and, by default on every read, the confined two-atom join
// R('k' | x), !S('k' | x). The router forwards both to the owning
// shard (same-key blocks co-locate, so its verdict is the global one),
// which answers from its indexes: per-read cost no longer depends on
// the slice a shard holds, so partitioning frees little capacity on
// this workload and the gate below fails. The workload needs reworking
// (reads that exercise several shards at once); the gate is kept as it
// was.
//
// Usage:
//
//	shardbench [-shards 4] [-keys 12000] [-writes 60] [-readers 8]
//	           [-reads 120] [-join-every 1] [-seed 1]
//	           [-out BENCH_shard.json] [-min-speedup 3] [-cqad path]
//
// Exit status: 0 when both runs validate cleanly and the speedup meets
// -min-speedup; 1 otherwise.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cqa/internal/loadgen"
	"cqa/internal/shard/chaostest"
)

type runResult struct {
	Shards      int     `json:"shards"`
	ReadRPS     float64 `json:"read_rps"`
	ReadP50Ms   float64 `json:"read_p50_ms"`
	ReadP99Ms   float64 `json:"read_p99_ms"`
	Reads       int     `json:"reads"`
	Failures    int     `json:"failures"`
	Validated   int     `json:"validated"`
	WriteMs     float64 `json:"write_phase_ms"`
	QuiesceMs   float64 `json:"quiesce_phase_ms"`
	ReadPhaseMs float64 `json:"read_phase_ms"`
}

type benchDoc struct {
	Date       string    `json:"date"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	Topology   string    `json:"topology"`
	Keys       int       `json:"keys"`
	Writes     int       `json:"writes"`
	Readers    int       `json:"readers"`
	Reads      int       `json:"reads_per_reader"`
	JoinEvery  int       `json:"join_every"`
	Seed       int64     `json:"seed"`
	Baseline   runResult `json:"baseline"`
	Sharded    runResult `json:"sharded"`
	Speedup    float64   `json:"speedup"`
	MinSpeedup float64   `json:"min_speedup"`
	Pass       bool      `json:"pass"`
}

func main() {
	shards := flag.Int("shards", 4, "shard count for the scaled run")
	keys := flag.Int("keys", 12000, "block key space (sizes the database)")
	writes := flag.Int("writes", 60, "write batches before the read phase")
	readers := flag.Int("readers", 8, "concurrent read clients")
	reads := flag.Int("reads", 120, "reads per client")
	joinEvery := flag.Int("join-every", 1, "every n-th read is the confined two-atom join (1 = all)")
	seed := flag.Int64("seed", 1, "workload seed")
	out := flag.String("out", "BENCH_shard.json", "result file")
	minSpeedup := flag.Float64("min-speedup", 3, "fail below this sharded/baseline read-throughput ratio (0 disables)")
	cqad := flag.String("cqad", "", "cqad binary (empty builds it)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir, err := os.MkdirTemp("", "shardbench-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	bin := *cqad
	if bin == "" {
		fmt.Println("building cqad...")
		if bin, err = chaostest.BuildCqad(dir); err != nil {
			fatal(err)
		}
	}

	opts := loadgen.ShardedOptions{
		Keys:      *keys,
		Writes:    *writes,
		Readers:   *readers,
		Reads:     *reads,
		JoinEvery: *joinEvery,
		Seed:      *seed,
		Timeout:   120 * time.Second,
	}
	baseline, err := oneRun(ctx, bin, dir+"/base", 1, opts)
	if err != nil {
		fatal(err)
	}
	scaled, err := oneRun(ctx, bin, dir+"/scaled", *shards, opts)
	if err != nil {
		fatal(err)
	}

	doc := benchDoc{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Topology:   "router over N cqad shard processes, each GOMAXPROCS=1, loopback HTTP",
		Keys:       *keys,
		Writes:     *writes,
		Readers:    *readers,
		Reads:      *reads,
		JoinEvery:  *joinEvery,
		Seed:       *seed,
		Baseline:   baseline,
		Sharded:    scaled,
		MinSpeedup: *minSpeedup,
	}
	if baseline.ReadRPS > 0 {
		doc.Speedup = scaled.ReadRPS / baseline.ReadRPS
	}
	doc.Pass = *minSpeedup <= 0 || doc.Speedup >= *minSpeedup
	buf, _ := json.MarshalIndent(doc, "", "  ")
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("baseline (1 shard):  %.0f req/s\nsharded  (%d shards): %.0f req/s\nspeedup: %.2fx (min %.1fx) → %s\n",
		baseline.ReadRPS, *shards, scaled.ReadRPS, doc.Speedup, *minSpeedup, map[bool]string{true: "PASS", false: "FAIL"}[doc.Pass])
	fmt.Printf("recorded in %s\n", *out)
	if !doc.Pass {
		os.Exit(1)
	}
}

// oneRun boots a router-over-n topology, drives the phased workload,
// validates every read, and tears the topology down.
func oneRun(ctx context.Context, bin, dir string, n int, opts loadgen.ShardedOptions) (runResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return runResult{}, err
	}
	tp, err := chaostest.Boot(chaostest.BootOptions{
		Bin:        bin,
		Dir:        dir,
		Shards:     n,
		ShardEnv:   []string{"GOMAXPROCS=1"},
		ShardArgs:  []string{"-max-inflight", "512", "-timeout", "60s"},
		RouterArgs: []string{"-max-inflight", "512", "-timeout", "60s"},
	})
	if err != nil {
		return runResult{}, err
	}
	defer tp.Close()
	fmt.Printf("measuring router over %d shard(s)...\n", n)
	rep, err := loadgen.RunSharded(ctx, tp.Router.URL, opts)
	if err != nil {
		return runResult{}, fmt.Errorf("run over %d shard(s): %w", n, err)
	}
	checked, err := loadgen.ValidateSharded(rep)
	if err != nil {
		return runResult{}, fmt.Errorf("validation over %d shard(s): %w", n, err)
	}
	fmt.Printf("  %s\n  validated %d answer(s)\n", rep, checked)
	return runResult{
		Shards:      n,
		ReadRPS:     rep.ReadThroughput(),
		ReadP50Ms:   float64(rep.Latency.P50) / 1e6,
		ReadP99Ms:   float64(rep.Latency.P99) / 1e6,
		Reads:       rep.Reads,
		Failures:    rep.Failures,
		Validated:   checked,
		WriteMs:     float64(rep.WriteDuration) / 1e6,
		QuiesceMs:   float64(rep.QuiesceDuration) / 1e6,
		ReadPhaseMs: float64(rep.ReadDuration) / 1e6,
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shardbench:", err)
	os.Exit(1)
}
