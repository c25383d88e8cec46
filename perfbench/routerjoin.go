package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/parse"
	"cqa/internal/schema"
	"cqa/internal/server"
	"cqa/internal/shard"
)

// router-join: an in-process router over two in-process shard servers
// holding the shardbench R/S layout (R(k | v) on every key, S(k | v) on
// every second key, values v0..v2), read by a closed loop of 2 clients.

const (
	rjKeys   = 2500
	rjValues = 3
	rjShards = 2
)

// genRouterDB builds the R/S layout over keys block keys.
func genRouterDB(rng *rand.Rand, keys int) *db.Database {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 2, 1)
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(rjValues)) }
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		_ = d.Insert(db.F("R", k, val()))
		if rng.Float64() < inconsShare {
			_ = d.Insert(db.F("R", k, val()))
		}
		if i%2 == 0 {
			_ = d.Insert(db.F("S", k, val()))
		}
	}
	return d
}

// joinOps draws router-join reads: one in 33 is a cross-shard join,
// one in eight a single-atom scatter read (pinned and unpinned in
// turn), the rest are pinned joins on a uniform key.
func joinOps(seed int64, keys int) *opSeq {
	rng := rand.New(rand.NewSource(seed ^ 0x10f))
	return &opSeq{draw: func(i int) string {
		k := rng.Intn(keys)
		switch {
		case i%33 == 0:
			return "R(x | y), !S(x | y)"
		case i%8 == 4 && (i/8)%2 == 0:
			return fmt.Sprintf("R('k%d' | 'v%d')", k, rng.Intn(rjValues))
		case i%8 == 4:
			return fmt.Sprintf("R(x | 'v%d')", rng.Intn(rjValues))
		}
		return fmt.Sprintf("R('k%d' | x), !S('k%d' | x)", k, k)
	}}
}

// prefillPlans reads more distinct pinned joins than the router's plan
// cache holds, so timing starts in the steady state: every cached plan
// keeps the bound program of the merged database it last evaluated, and
// the heap grows until the cache is full.
func prefillPlans(base string) error {
	c := newClient(2)
	defer c.close()
	n := engine.DefaultCacheSize + 44
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n && errs[w] == nil; k += 2 {
				var resp server.CertainResponse
				q := fmt.Sprintf("R('k%d' | x), !S('k%d' | x)", k, k)
				errs[w] = c.post(context.Background(), base+"/v1/certain", server.CertainRequest{Query: q, Database: "rj"}, &resp)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("plan-cache prefill: %w", err)
		}
	}
	return nil
}

// rjStack is the router tier: two shard servers and the router.
type rjStack struct {
	shards []*server.Server
	nodes  []*node
	router *server.Router
	rnode  *node
}

func (s *rjStack) stop() {
	if s.rnode != nil {
		s.rnode.stop()
		s.router.Inner().Engine().Close()
	}
	for i, n := range s.nodes {
		n.stop()
		s.shards[i].Engine().Close()
	}
}

func setupRouterJoin(mainText, sideText string) (*rjStack, error) {
	st := &rjStack{}
	var urls []string
	for i := 0; i < rjShards; i++ {
		srv := server.New(serverOptions(nil))
		n, err := serve(srv.Handler())
		if err != nil {
			st.stop()
			return nil, err
		}
		st.shards, st.nodes = append(st.shards, srv), append(st.nodes, n)
		urls = append(urls, n.url)
	}
	st.router = server.NewRouter(server.RouterOptions{Shards: urls, Options: serverOptions(nil)})
	rn, err := serve(st.router.Handler())
	if err != nil {
		st.stop()
		return nil, err
	}
	st.rnode = rn
	c := newClient(1)
	defer c.close()
	// The side database lives on shard server 0 as a plain single-shard
	// database: the router's own watch relay is not exercised (see
	// METRICS.md), so the side session talks to the shard directly.
	for _, db := range []struct{ base, name, text string }{{rn.url, "rj", mainText}, {st.nodes[0].url, "side", sideText}} {
		var ack server.DBWriteResponse
		if err := c.post(context.Background(), db.base+"/v1/db/create", server.DBCreateRequest{Name: db.name, Facts: db.text}, &ack); err != nil {
			st.stop()
			return nil, fmt.Errorf("creating %s: %w", db.name, err)
		}
	}
	for _, q := range []string{"R('k0' | x), !S('k0' | x)", "R('k0' | 'v0')", "R(x | 'v0')", "R(x | y), !S(x | y)"} {
		var resp server.CertainResponse
		if err := c.post(context.Background(), rn.url+"/v1/certain", server.CertainRequest{Query: q, Database: "rj"}, &resp); err != nil {
			st.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := warm(st.nodes[0].url, "side"); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func runRouterJoin(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceRouterJoin(cfg)
	}
	cfg = withBlocks(cfg, rjKeys)
	main := genRouterDB(rand.New(rand.NewSource(cfg.seed)), cfg.blocks)
	side := genDB(rand.New(rand.NewSource(cfg.seed+1)), sideBlocks)
	mainText, sideText := dbText(main), dbText(side)
	st, setupS, err := repeatSetup(cfg, func() (*rjStack, error) { return setupRouterJoin(mainText, sideText) }, (*rjStack).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	if err := prefillPlans(st.rnode.url); err != nil {
		return nil, err
	}
	out := newOutcome()
	out.metrics["setup_s"] = setupS
	out.metrics["heap_mb"] = heapMB()
	out.stamp["blocks"] = cfg.blocks
	out.stamp["shards"] = rjShards
	out.stamp["side_blocks"] = sideBlocks
	out.stamp["fsync"] = "none (memory-only stores)"

	// Rounds alternate router reads with the side session on shard 0,
	// as in read-point.
	c := newClient(2)
	defer c.close()
	warmRecs := warmReads(c, st.rnode.url, "rj", joinOps(cfg.seed+warmSalt, cfg.blocks).at, 2)
	rd := newReader(c, st.rnode.url, "rj", joinOps(cfg.seed, cfg.blocks).at, 2)
	sess := &session{c: c, base: st.nodes[0].url, database: "side",
		ticks: genTicks(cfg.seed, side, sideBlocks, sideTicks, sideBatch, 1)}
	evBefore := evalCounts(st.router.Inner().Registry())
	runtime.GC()
	for r := 0; r < rounds; r++ {
		rd.round(secs(cfg.seconds * (1 - sideShare) / rounds))
		c.close()
		if err := sess.withWatch(func() { sess.roundFor(secs(cfg.seconds * sideShare / rounds)) }); err != nil {
			return nil, err
		}
		c.close()
	}
	rd.metrics(out)
	sessionMetrics(out, sess)
	strategyShares(out, evBefore, evalCounts(st.router.Inner().Registry()))

	valStart := time.Now()
	o := newOracle()
	if err := checkReads(out, o, append(warmRecs, rd.recs...), main, 0, false); err != nil {
		return nil, err
	}
	if err := checkSession(out, o, sess, side); err != nil {
		return nil, err
	}
	out.stamp["validate_s"] = time.Since(valStart).Seconds()
	return out, nil
}

// routerReader replays the router's named-database /v1/certain path:
// decode, parse, PrepareCached on the router's engine, then either the
// verdict scatter (single positive atom) or the facts-merge: one
// /v1/db/facts RPC per touched shard, decode, merge, intern, evaluate.
type routerReader struct {
	rec    *recorder
	eng    *engine.Engine
	shards []string
	hc     *http.Client
	tally  cacheTally
	bytes  []float64 // bytes gathered per recorded read
	rpcs   []float64 // shard RPCs per recorded read
	split  map[string][]float64
}

// get fetches one shard resource under a shard.gather span.
func (r *routerReader) rpc(root *spanRef, method, url string, body []byte) ([]byte, error) {
	g := root.child("shard.gather")
	defer g.end()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard status %d: %s", resp.StatusCode, raw)
	}
	return raw, nil
}

func (r *routerReader) read(database, query string, keep bool) (bool, error) {
	body, err := json.Marshal(server.CertainRequest{Query: query, Database: database})
	if err != nil {
		return false, err
	}
	root := r.rec.request("read", keep)
	defer root.end()
	var req server.CertainRequest
	root.timed("server.decode", func() { req, err = server.ParseCertainRequest(body) })
	if err != nil {
		return false, err
	}
	var q schema.Query
	root.timed("parse.query", func() { q, err = parse.Query(req.Query) })
	if err != nil {
		return false, err
	}
	plan := root.child("engine.plan")
	p, hit, err := r.eng.PrepareCached(q)
	t := r.rec.now()
	if err != nil {
		return false, err
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
	touched, _ := shard.Touched(q, len(r.shards))
	var nBytes, nRPC int
	certain := false
	times := map[string]int64{}
	timed := func(name string, fn func()) {
		t0 := r.rec.now()
		root.timed(name, fn)
		times[name] += r.rec.now() - t0
	}
	if len(q.Lits) == 1 && !q.Lits[0].Neg {
		for _, i := range touched {
			var raw []byte
			timed("shard.gather", func() { raw, err = r.rpc(root, http.MethodPost, r.shards[i]+"/v1/certain", body) })
			if err != nil {
				return false, err
			}
			nBytes, nRPC = nBytes+len(raw), nRPC+1
			var ans server.CertainResponse
			timed("shard.decode", func() { err = json.Unmarshal(raw, &ans) })
			if err != nil {
				return false, err
			}
			if ans.Certain {
				certain = true
				break
			}
		}
	} else {
		merged := db.New()
		for n, i := range touched {
			var raw []byte
			timed("shard.gather", func() {
				raw, err = r.rpc(root, http.MethodGet, r.shards[i]+"/v1/db/facts?db="+url.QueryEscape(database), nil)
			})
			if err != nil {
				return false, err
			}
			nBytes, nRPC = nBytes+len(raw), nRPC+1
			var fr server.FactsResponse
			timed("shard.decode", func() { err = json.Unmarshal(raw, &fr) })
			if err != nil {
				return false, err
			}
			timed("db.merge", func() {
				if err = mergeFacts(merged, fr); err == nil && n == len(touched)-1 {
					err = parse.DeclareQueryRelations(merged, q)
				}
			})
			if err != nil {
				return false, err
			}
		}
		timed("db.intern", func() { merged.Interned() })
		ev := root.child("fo.eval").attr("strategy", strategy).attr("fresh", "true")
		t0 := r.rec.now()
		certain, err = r.eng.CertainWith(p, merged)
		ev.end()
		times["fo.eval"] = r.rec.now() - t0
		if err != nil {
			return false, err
		}
	}
	root.timed("server.encode", func() {
		_, err = json.Marshal(server.CertainResponse{Certain: certain, Verdict: string(p.Classification().Verdict), Database: database})
	})
	if keep {
		r.bytes = append(r.bytes, float64(nBytes))
		r.rpcs = append(r.rpcs, float64(nRPC))
		if strings.HasPrefix(query, "R('") && strings.Contains(query, "!S") {
			for k, v := range times {
				r.split[k] = append(r.split[k], float64(v)/1e3)
			}
		}
	}
	return certain, err
}

// mergeFacts folds one shard's facts export into dst, as the router's
// facts-merge does.
func mergeFacts(dst *db.Database, fr server.FactsResponse) error {
	for _, sig := range fr.Relations {
		if err := dst.DeclareRelation(sig.Name, sig.Arity, sig.Key); err != nil {
			return err
		}
	}
	d, err := parse.Database(fr.Facts)
	if err != nil {
		return err
	}
	for _, rel := range d.RelationNames() {
		for _, f := range d.Facts(rel) {
			if err := dst.Insert(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// explainCheck sends pinned joins with "explain": true through the
// router and compares its stage clock with the traced split: the
// explain "gather" stage covers the RPC, decode and merge, its "eval"
// stage the intern and evaluation.
func explainCheck(out *outcome, base string, gen *opSeq, split map[string][]float64) error {
	c := newClient(1)
	defer c.close()
	stages := map[string][]float64{}
	for i, n := 0, 0; n < 40 && i < 100000; i++ {
		q := gen.at(i)
		if !strings.Contains(q, "!S('k") {
			continue
		}
		n++
		var resp server.CertainResponse
		req := server.CertainRequest{Query: q, Database: "rj", Explain: true}
		if err := c.post(context.Background(), base+"/v1/certain", req, &resp); err != nil {
			return err
		}
		if resp.Explain == nil {
			return fmt.Errorf("router answered without an explain")
		}
		for _, s := range resp.Explain.Stages {
			stages[s.Name] = append(stages[s.Name], float64(s.Nanos)/1e3)
		}
	}
	sum := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			if xs := split[n]; len(xs) > 0 {
				t += median(xs)
			}
		}
		return t
	}
	traced := map[string]float64{
		"gather": sum("shard.gather", "shard.decode", "db.merge"),
		"eval":   sum("db.intern", "fo.eval"),
	}
	cross := map[string]any{}
	for _, stage := range []string{"gather", "eval"} {
		ex := median(stages[stage])
		r := ratio(traced[stage], ex)
		cross[stage] = map[string]float64{"explain_us": ex, "traced_us": traced[stage], "traced_over_explain": r}
		if r < 0.5 || r > 2 {
			fmt.Printf("explain disagreement: %s stage %.0fus in explain, %.0fus traced\n", stage, ex, traced[stage])
		}
	}
	split2 := map[string]float64{}
	for k, xs := range split {
		split2[k+"_us"] = median(xs)
	}
	cross["traced_split_p50"] = split2
	out.stamp["explain_crosscheck"] = cross
	return nil
}

func traceRouterJoin(cfg config) (*outcome, error) {
	cfg = withBlocks(cfg, rjKeys)
	main := genRouterDB(rand.New(rand.NewSource(cfg.seed)), cfg.blocks)
	side := genDB(rand.New(rand.NewSource(cfg.seed+1)), sideBlocks)
	mainText, sideText := dbText(main), dbText(side)
	half := secs(cfg.seconds / 2)
	out := newOutcome()
	out.stamp["blocks"] = cfg.blocks
	out.stamp["shards"] = rjShards
	o := newOracle()

	st, err := setupRouterJoin(mainText, sideText)
	if err != nil {
		return nil, err
	}
	if err := prefillPlans(st.rnode.url); err != nil {
		st.stop()
		return nil, err
	}
	gen := joinOps(cfg.seed, cfg.blocks)
	c := newClient(2)
	rd := newReader(c, st.rnode.url, "rj", gen.at, 2)
	rd.round(half)
	c.close()
	st.stop()
	recs := rd.recs
	if err := checkReads(out, o, recs, main, 0, false); err != nil {
		return nil, err
	}

	rec := newRecorder()
	setup := rec.request("setup", true)
	var st2 *rjStack
	setup.timed("db.load", func() { st2, err = setupRouterJoin(mainText, sideText) })
	setup.end()
	if err != nil {
		return nil, err
	}
	defer st2.stop()
	if err := prefillPlans(st2.rnode.url); err != nil {
		return nil, err
	}
	var urls []string
	for _, n := range st2.nodes {
		urls = append(urls, n.url)
	}
	r := &routerReader{rec: rec, eng: st2.router.Inner().Engine(), shards: urls,
		hc: &http.Client{Timeout: 60 * time.Second}, split: map[string][]float64{}}
	defer r.hc.CloseIdleConnections()
	deadline := time.Now().Add(half)
	var trecs []readRec
	for i := 0; i < len(recs) && time.Now().Before(deadline); i++ {
		q := gen.at(i)
		t := time.Now()
		certain, err := r.read("rj", q, keepSpans(i))
		trecs = append(trecs, readRec{query: q, certain: certain, lat: time.Since(t), err: err})
	}
	if err := checkReads(out, o, trecs, main, 0, false); err != nil {
		return nil, err
	}
	layerMetrics(out, rec, r.tally)
	out.metrics["shard.gather_bytes"] = median(r.bytes)
	out.metrics["shard.rpcs_per_read"] = ratio(sum(r.rpcs), float64(len(r.rpcs)))
	out.metrics["server.transport_us"] = median(latenciesUS(recs)) - median(rec.roots[true]["read"])
	out.stamp["replayed"] = len(trecs)
	if err := explainCheck(out, st2.rnode.url, gen, r.split); err != nil {
		return nil, err
	}
	return out, writeSpans(cfg, out, rec)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
