package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"

	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/parse"
	"cqa/internal/schema"
	"cqa/internal/server"
	"cqa/internal/shard"
)

// The traced run replays a workload's seeded operations by calling each
// layer's public functions directly, in the order the HTTP handlers
// call them, with a span around every call. End-to-end numbers never
// come from here; per-layer numbers come only from here.

// keepSpans reports whether operation i of a replay records its spans.
// One run of four operations in five is replayed unrecorded to measure
// the tracing overhead. The period (20) is not a multiple of the write
// session's family cycle (8), so every family lands in both halves.
func keepSpans(i int) bool { return (i/4)%5 != 4 }

// evalSpan names the span of an evaluation by the strategy that runs it.
func evalSpan(strategy string) string {
	switch strategy {
	case engine.StrategyMatching, engine.StrategyReachability:
		return "planner.decide"
	case engine.StrategyNaive:
		return "naive.eval"
	}
	return "fo.eval"
}

// markedView is the engine's shard view of one store snapshot that
// notes when the engine fetches the shard database — the moment the
// result-cache lookup is over and evaluation begins.
type markedView struct {
	*shard.View
	mark atomic.Int64
	rec  *recorder
}

func (v *markedView) Shard(i int) *db.Database {
	v.mark.Store(v.rec.now())
	return v.View.Shard(i)
}

func (v *markedView) Union() *db.Database {
	v.mark.Store(v.rec.now())
	return v.View.Union()
}

// cacheTally counts plan- and result-cache outcomes in the traced run.
type cacheTally struct{ planHit, planAll, resHit, resAll int }

// directReader replays /v1/certain on one server's engine and stores.
type directReader struct {
	rec      *recorder
	eng      *engine.Engine
	stores   *shard.Set
	tally    cacheTally
	lastSeen map[string]uint64 // database → last evaluated version
}

// read is the named-database branch of the /v1/certain handler:
// decode, parse, PrepareCached, CertainShardedVersioned, encode.
func (r *directReader) read(database, query string, keep bool) (bool, uint64, error) {
	body, err := json.Marshal(server.CertainRequest{Query: query, Database: database})
	if err != nil {
		return false, 0, err
	}
	root := r.rec.request("read", keep)
	defer root.end()
	var req server.CertainRequest
	root.timed("server.decode", func() { req, err = server.ParseCertainRequest(body) })
	if err != nil {
		return false, 0, err
	}
	var q schema.Query
	root.timed("parse.query", func() { q, err = parse.Query(req.Query) })
	if err != nil {
		return false, 0, err
	}
	sh := r.stores.Get(req.Database)
	if sh == nil {
		return false, 0, fmt.Errorf("no database %q", req.Database)
	}
	view := &markedView{View: sh.View(), rec: r.rec}
	plan := root.child("engine.plan")
	p, hit, err := r.eng.PrepareCached(q)
	t := r.rec.now()
	if err != nil {
		return false, 0, err
	}
	if !hit {
		r.rec.add("core.prepare", plan, plan.start, t, nil)
	}
	plan.endAt(t)
	r.tally.planAll++
	if hit {
		r.tally.planHit++
	}
	strategy := r.eng.Strategy(p)
	res := root.child("engine.result")
	certain, cached, err := r.eng.CertainShardedVersioned(q, req.Database, view)
	t = r.rec.now()
	if err != nil {
		return false, 0, err
	}
	r.tally.resAll++
	if cached {
		r.tally.resHit++
	} else if m := view.mark.Load(); m > 0 {
		fresh := r.lastSeen[req.Database] != view.Version()
		r.lastSeen[req.Database] = view.Version()
		r.rec.add(evalSpan(strategy), res, m, t, map[string]string{"strategy": strategy, "fresh": fmt.Sprint(fresh)})
	}
	res.endAt(t)
	root.timed("server.encode", func() {
		_, err = json.Marshal(server.CertainResponse{Certain: certain, Database: req.Database,
			Verdict: string(p.Classification().Verdict), Version: view.Version(), Cached: &cached})
	})
	return certain, view.Version(), err
}

// layerMetrics derives every per-layer metric from the recorded spans;
// layers a workload leaves idle report 0.
func layerMetrics(out *outcome, rec *recorder, tally cacheTally) {
	self := rec.selfBy(nil)
	fresh := rec.selfBy(func(s span) bool { return s.Name == "fo.eval" && s.Attrs["fresh"] == "true" })
	warm := rec.selfBy(func(s span) bool { return s.Name == "fo.eval" && s.Attrs["fresh"] != "true" })
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	for metric, spanName := range map[string]string{
		"server.decode_us":      "server.decode",
		"server.encode_us":      "server.encode",
		"parse.query_us":        "parse.query",
		"parse.facts_us":        "parse.facts",
		"engine.apply_write_us": "engine.apply_write",
		"core.prepare_us":       "core.prepare",
		"planner.decide_us":     "planner.decide",
		"naive.eval_us":         "naive.eval",
		"db.intern_us":          "db.intern",
		"db.merge_us":           "db.merge",
		"store.insert_us":       "store.insert",
		"store.fsync_us":        "store.fsync",
		"delta.decide_us":       "delta.decide",
		"delta.recheck_all_us":  "delta.recheck_all",
		"shard.gather_us":       "shard.gather",
		"shard.decode_us":       "shard.decode",
	} {
		out.metrics[metric] = med(self[spanName])
	}
	out.metrics["fo.eval_warm_us"] = med(warm["fo.eval"])
	out.metrics["fo.eval_fresh_us"] = med(fresh["fo.eval"])
	out.metrics["db.load_s"] = med(self["db.load"]) / 1e6
	out.metrics["engine.plan_cache_hit_ratio"] = ratio(float64(tally.planHit), float64(tally.planAll))
	out.metrics["engine.result_cache_hit_ratio"] = ratio(float64(tally.resHit), float64(tally.resAll))
	for _, k := range []string{"store.wal_bytes_per_user_byte", "delta.skip_ratio", "delta.reevals_per_write",
		"shard.gather_bytes", "shard.rpcs_per_read", "gen.late_p95_ms", "server.transport_us"} {
		if _, ok := out.metrics[k]; !ok {
			out.metrics[k] = 0
		}
	}
	// Tracing overhead: requests replayed with recording on versus off,
	// compared by mean because both halves mix operation kinds whose
	// costs differ tenfold.
	for name, on := range rec.roots[true] {
		if off := rec.roots[false][name]; len(off) > 0 && len(on) > 0 {
			out.stamp["trace_overhead_"+name] = (sum(on)/float64(len(on)))/(sum(off)/float64(len(off))) - 1
		}
	}
	for k, v := range out.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.metrics[k] = 0
		}
	}
}

// writeSpans stores the run's spans next to the other run outputs.
func writeSpans(cfg config, out *outcome, rec *recorder) error {
	path, err := rec.write(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	out.stamp["spans_file"] = path
	out.stamp["spans"] = len(rec.spans)
	out.stamp["spans_per_request"] = ratio(float64(len(rec.spans)), float64(rec.reqs))
	return nil
}
