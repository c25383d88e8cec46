package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cqa/internal/engine"
	"cqa/internal/metrics"
)

// cacheShares stamps the plan- and result-cache hit shares measured
// over a window (engine counters before and after it).
func cacheShares(out *outcome, before, after engine.Stats) {
	ph, pm := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	rh, rm := float64(after.ResultHits-before.ResultHits), float64(after.ResultMisses-before.ResultMisses)
	out.stamp["plan_cache_hit_share"] = ratio(ph, ph+pm)
	out.stamp["result_cache_hit_share"] = ratio(rh, rh+rm)
}

// evalCounts snapshots the server's eval_total{strategy,cache} counters.
func evalCounts(reg *metrics.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range reg.Values() {
		if !strings.HasPrefix(k, "eval_total{") {
			continue
		}
		if n, ok := v.(uint64); ok {
			out[k] = n
		}
	}
	return out
}

// strategyShares stamps how many reads each evaluation strategy (and
// cache outcome) served during a window.
func strategyShares(out *outcome, before, after map[string]uint64) {
	d := map[string]uint64{}
	for k, v := range after {
		if n := v - before[k]; n > 0 {
			d[k] = n
		}
	}
	out.stamp["reads_by_strategy"] = d
}

// sourceRevision names the code under test: the git commit when the
// checkout is a repository, else a digest of the module's Go sources.
func sourceRevision() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	var paths []string
	for _, root := range []string{"go.mod", "internal", "cmd"} {
		_ = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	if len(paths) == 0 {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
