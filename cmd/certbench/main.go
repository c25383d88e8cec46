// Command certbench runs the full experiment suite E1–E14 described in
// DESIGN.md and prints the tables recorded in EXPERIMENTS.md. Every
// experiment is deterministic (fixed seeds) and validates itself: a
// failed cross-check aborts with a non-zero exit code.
//
// Usage:
//
//	certbench [-run E1,E3] [-quick]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

var experiments = []struct {
	id   string
	desc string
	run  func(quick bool) error
}{
	{"E1", "Figure 1 / Example 1.1: girls-boys database and the matching repair", runE1},
	{"E2", "classification of every example query in the paper", runE2},
	{"E3", "q_Hall: Figure 2 rewriting, Hall equivalence, rewriting growth", runE3},
	{"E4", "Lemma 5.2: BPM reduction agreement and engine timings", runE4},
	{"E5", "Lemma 5.3: UFA reduction agreement", runE5},
	{"E6", "Example 7.1: q4 decision procedure vs repair enumeration", runE6},
	{"E7", "scaling: rewriting and Algorithm 1 vs naive enumeration", runE7},
	{"E8", "random-query sweep: dichotomy statistics and engine agreement", runE8},
	{"E9", "attack-graph cost vs query size; Θ-reduction preservation", runE9},
	{"E10", "extensions: SQL end-to-end, free variables, reifiability, ♯CERTAINTY", runE10},
	{"E11", "P vs FO: matching-based PTIME deciders for q1 and q_Hall", runE11},
	{"E12", "serving engine: plan cache, batch worker pool", runE12},
	{"E13", "serving daemon: in-process HTTP server under load, self-validated answers, ops surfaces", runE13},
	{"E14", "mutable store: daemon under read/write load, contemporaneous-snapshot validation, incremental invalidation", runE14},
}

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment ids (default: all)")
	quick := flag.Bool("quick", false, "smaller instances for a fast smoke run")
	benchOut := flag.String("bench-out", "", "measure compiled vs interpreted evaluation and write BENCH JSON to this path (skips the experiment suite)")
	flag.Parse()

	if *benchOut != "" {
		fmt.Println("==== bench-out: compiled vs interpreted evaluation ====")
		if err := runBenchOut(*benchOut, *quick); err != nil {
			log.Fatalf("bench-out FAILED: %v", err)
		}
		return
	}

	want := map[string]bool{}
	if *runFlag != "" {
		for _, id := range strings.Split(*runFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.desc)
		if err := e.run(*quick); err != nil {
			log.Printf("%s FAILED: %v", e.id, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}
