package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/server"
)

// Side phases fill the metrics a workload's main phase does not
// produce, on the workload's own stack, in rounds alternating with the
// main phase: a write session on a small companion database for the
// read workloads, a closed read loop for write-watch.
const (
	rpBlocks   = 10000 // read-point's main database
	sideBlocks = 300
	sideTicks  = 6000 // closed loop for sideShare of the run; more than fit
	sideBatch  = 3
	sideShare  = 0.25            // of the run's seconds, given to the side session
	warmUp     = 4 * time.Second // untimed reads before every timed loop
	warmSalt   = 7919            // seeds the warm-up reads apart from the timed ones
)

// dataset is the seeded input of one run: fact text for the main and
// side databases, generated before any set-up is timed.
type dataset struct {
	mainText, sideText string
	main, side         *db.Database
}

func makeDataset(cfg config) dataset {
	m := genDB(rand.New(rand.NewSource(cfg.seed)), cfg.blocks)
	s := genDB(rand.New(rand.NewSource(cfg.seed+1)), sideBlocks)
	return dataset{mainText: dbText(m), sideText: dbText(s), main: m, side: s}
}

// dbText renders a database in the fact syntax (the bulk-load input).
func dbText(d *db.Database) string {
	var facts []db.Fact
	for _, rel := range d.RelationNames() {
		facts = append(facts, d.Facts(rel)...)
	}
	return factText(facts)
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// repeatSetup runs set-up cfg.setups times, tearing down all but the
// last stack, and reports the median set-up time.
func repeatSetup[S any](cfg config, setup func() (S, error), teardown func(S)) (S, float64, error) {
	var times []float64
	var st S
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			teardown(st)
		}
		runtime.GC()
		t := time.Now()
		var err error
		if st, err = setup(); err != nil {
			var zero S
			return zero, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return st, median(times), nil
}

// warm issues one read of every read-point query shape and family so
// lazy interning and bitset builds finish before timing.
func warm(baseURL, database string) error {
	c := newClient(1)
	defer c.close()
	for _, q := range warmQueries() {
		var resp server.CertainResponse
		if err := c.post(context.Background(), baseURL+"/v1/certain", server.CertainRequest{Query: q, Database: database}, &resp); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func warmQueries() []string {
	qs := []string{
		"Lives('p0' | t), !Born('p0' | t), !Likes('p0', t)",
		"R0('x0' | a), R1(a | b), R2(b | c), !N('x0' | a)",
		watchQuery,
	}
	for _, f := range readFamilies {
		qs = append(qs, f.query)
	}
	return qs
}

// rpStack is the read-point serving stack: one server holding the main
// database "rp" and the side database "side", both preloaded like
// cqad -dbdir (memory-only single-shard stores).
type rpStack struct {
	srv  *server.Server
	node *node
}

func (s *rpStack) stop() {
	s.node.stop()
	s.srv.Engine().Close()
}

func setupReadPoint(ds dataset) (*rpStack, error) {
	m, err := parse.Database(ds.mainText)
	if err != nil {
		return nil, err
	}
	side, err := parse.Database(ds.sideText)
	if err != nil {
		return nil, err
	}
	opt := serverOptions(nil)
	opt.Databases = map[string]*db.Database{"rp": m, "side": side}
	srv := server.New(opt)
	n, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	st := &rpStack{srv: srv, node: n}
	for _, name := range []string{"rp", "side"} {
		if err := warm(n.url, name); err != nil {
			st.stop()
			return nil, err
		}
	}
	return st, nil
}

func runReadPoint(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceReadPoint(cfg)
	}
	cfg = withBlocks(cfg, rpBlocks)
	ds := makeDataset(cfg)
	st, setupS, err := repeatSetup(cfg, func() (*rpStack, error) { return setupReadPoint(ds) }, (*rpStack).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	out := newOutcome()
	out.metrics["setup_s"] = setupS
	out.metrics["heap_mb"] = heapMB()
	out.stamp["blocks"] = cfg.blocks
	out.stamp["side_blocks"] = sideBlocks
	out.stamp["fsync"] = "none (memory-only stores)"

	// Rounds alternate the timed reads with the side session, so both
	// span the whole run. Idle connections close between the two, so at
	// most two are open at a time.
	c := newClient(2)
	defer c.close()
	warmRecs := warmReads(c, st.node.url, "rp", pointOps(cfg.seed+warmSalt, cfg.blocks).at, 2)
	rd := newReader(c, st.node.url, "rp", pointOps(cfg.seed, cfg.blocks).at, 2)
	sess := &session{c: c, base: st.node.url, database: "side",
		ticks: genTicks(cfg.seed, ds.side, sideBlocks, sideTicks, sideBatch, 1)}
	before, evBefore := st.srv.Engine().Stats(), evalCounts(st.srv.Registry())
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
	cacheShares(out, before, st.srv.Engine().Stats())
	strategyShares(out, evBefore, evalCounts(st.srv.Registry()))

	valStart := time.Now()
	o := newOracle()
	if err := checkReads(out, o, append(warmRecs, rd.recs...), ds.main, 0, true); err != nil {
		return nil, err
	}
	if err := checkSession(out, o, sess, ds.side); err != nil {
		return nil, err
	}
	out.stamp["validate_s"] = time.Since(valStart).Seconds()
	return out, nil
}

// warmReads reads for warmUp on a sequence drawn like the timed one, so
// the caches, the lazily built indexes and the heap reach their steady
// state before timing starts. The answers are checked with the rest.
func warmReads(c *client, base, database string, next func(i int) string, conns int) []readRec {
	wr := newReader(c, base, database, next, conns)
	wr.round(warmUp)
	c.close()
	return wr.recs
}

// rounds is how many stretches each run's phases are cut into.
const rounds = 9

// share is round r's part of n operations.
func share(n, r int) int { return (r+1)*n/rounds - r*n/rounds }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// withBlocks applies the workload's default size unless the config
// sets one (the self-test runs small).
func withBlocks(cfg config, def int) config {
	if cfg.blocks == 0 {
		cfg.blocks = def
	}
	return cfg
}

// latenciesUS returns the successful reads' latencies in microseconds.
func latenciesUS(recs []readRec) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil {
			out = append(out, float64(r.lat)/1e3)
		}
	}
	return out
}

// loadDirect bulk-loads fact text under a db.load span and interns it
// under a db.intern span, as set-up does before serving.
func loadDirect(rec *recorder, text string) (*db.Database, error) {
	root := rec.request("setup", true)
	defer root.end()
	var d *db.Database
	var err error
	root.timed("db.load", func() { d, err = parse.Database(text) })
	if err != nil {
		return nil, err
	}
	root.timed("db.intern", func() { d.Interned() })
	return d, nil
}

// replayReads replays the first n operations of next (at most for d)
// through r.
func replayReads(r *directReader, database string, next func(i int) string, n int, d time.Duration) []readRec {
	deadline := time.Now().Add(d)
	var recs []readRec
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		q := next(i)
		t := time.Now()
		certain, v, err := r.read(database, q, keepSpans(i))
		recs = append(recs, readRec{query: q, certain: certain, version: v, lat: time.Since(t), err: err})
	}
	return recs
}

func traceReadPoint(cfg config) (*outcome, error) {
	cfg = withBlocks(cfg, rpBlocks)
	ds := makeDataset(cfg)
	half := secs(cfg.seconds / 2)
	out := newOutcome()
	out.stamp["blocks"] = cfg.blocks
	o := newOracle()

	// Untraced pass over HTTP: the reference for server.transport_us.
	st, err := setupReadPoint(ds)
	if err != nil {
		return nil, err
	}
	gen := pointOps(cfg.seed, cfg.blocks)
	c := newClient(2)
	rd := newReader(c, st.node.url, "rp", gen.at, 2)
	rd.round(half)
	c.close()
	st.stop()
	recs := rd.recs
	if err := checkReads(out, o, recs, ds.main, 0, true); err != nil {
		return nil, err
	}

	rec := newRecorder()
	d, err := loadDirect(rec, ds.mainText)
	if err != nil {
		return nil, err
	}
	opt := serverOptions(nil)
	opt.Databases = map[string]*db.Database{"rp": d}
	srv := server.New(opt)
	defer srv.Engine().Close()
	r := &directReader{rec: newRecorder(), eng: srv.Engine(), stores: srv.Stores(), lastSeen: map[string]uint64{}}
	for _, q := range warmQueries() {
		if _, _, err := r.read("rp", q, false); err != nil {
			return nil, err
		}
	}
	r.rec, r.tally = rec, cacheTally{}
	trecs := replayReads(r, "rp", gen.at, len(recs), half)
	if err := checkReads(out, o, trecs, ds.main, 0, true); err != nil {
		return nil, err
	}
	layerMetrics(out, rec, r.tally)
	out.metrics["server.transport_us"] = median(latenciesUS(recs)) - median(rec.roots[true]["read"])
	out.stamp["replayed"] = len(trecs)
	return out, writeSpans(cfg, out, rec)
}
