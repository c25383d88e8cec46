package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/delta"
	"cqa/internal/engine"
	"cqa/internal/parse"
	"cqa/internal/server"
	"cqa/internal/shard"
	"cqa/internal/store"
)

// write-watch: a durable store on local disk with the WAL fsynced on
// every batch (cqad -data dir -fsync), one open-loop write session at a
// fixed rate and one /v1/watch stream.
const (
	wwBlocks = 3000
	wwRate   = 12.0 // ticks/s, below saturation at wwBlocks
	wwBatch  = 3
	// wwReadShare is the part of the run given to the closed-loop reads
	// between the session's rounds; the open loop has the rest.
	wwReadShare = 0.25
)

// dataDirs hands out fresh store directories under the output dir.
var dataDirs atomic.Int64

func freshDataDir(cfg config) (string, error) {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), dataDirs.Add(1)))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

type wwStack struct {
	srv    *server.Server
	node   *node
	stores *shard.Set
	dir    string
}

func (s *wwStack) stop() {
	s.node.stop()
	s.srv.Engine().Close()
	_ = s.stores.CloseAll()
	_ = os.RemoveAll(s.dir)
}

// setupWriteWatch boots a durable server the way cqad does on first
// boot with -dbdir, -data and -fsync: the preloaded database seeds the
// durable store, WAL fsyncs feed the registry's histogram, then the
// server attaches to the store.
func setupWriteWatch(cfg config, ds dataset) (*wwStack, error) {
	dir, err := freshDataDir(cfg)
	if err != nil {
		return nil, err
	}
	opt := serverOptions(nil)
	fsyncs := opt.Metrics.Histogram("wal_fsync_latency")
	stores, err := openStores(dir, true, func(d time.Duration) { fsyncs.Observe(d) })
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	fail := func(err error) (*wwStack, error) {
		_ = stores.CloseAll()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	d, err := parse.Database(ds.mainText)
	if err != nil {
		return fail(err)
	}
	sh, err := stores.Create("ww")
	if err != nil {
		return fail(err)
	}
	if _, err := sh.ApplyDB(d); err != nil {
		return fail(err)
	}
	opt.Stores = stores
	srv := server.New(opt)
	n, err := serve(srv.Handler())
	if err != nil {
		srv.Engine().Close()
		return fail(err)
	}
	st := &wwStack{srv: srv, node: n, stores: stores, dir: dir}
	if err := warm(n.url, "ww"); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func runWriteWatch(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceWriteWatch(cfg)
	}
	cfg = withBlocks(cfg, wwBlocks)
	ds := makeDataset(cfg)
	ticks := genTicks(cfg.seed, ds.main, cfg.blocks, int(wwRate*cfg.seconds*(1-wwReadShare)), wwBatch, 1)
	st, setupS, err := repeatSetup(cfg, func() (*wwStack, error) { return setupWriteWatch(cfg, ds) }, (*wwStack).stop)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	out := newOutcome()
	out.metrics["setup_s"] = setupS
	out.metrics["heap_mb"] = heapMB()
	out.stamp["fsync"] = "every batch"
	out.stamp["blocks"] = cfg.blocks
	out.stamp["side_reads_s"] = cfg.seconds * wwReadShare
	start := st.stores.Get("ww").Version()

	// One connection carries the session, the watch holds a second for
	// the whole run. Between the session's rounds its connection closes
	// and two connections carry the side reads, as in read-point.
	c := newClient(1)
	defer c.close()
	rc := newClient(2)
	defer rc.close()
	sess := &session{c: c, base: st.node.url, database: "ww", rate: wwRate, ticks: ticks}
	warmRecs := warmReads(rc, st.node.url, "ww", pointOps(cfg.seed+warmSalt, cfg.blocks).at, 2)
	rd := newReader(rc, st.node.url, "ww", pointOps(cfg.seed, cfg.blocks).at, 2)
	var tickEnd, readEnd [rounds]int
	before, evBefore := st.srv.Engine().Stats(), evalCounts(st.srv.Registry())
	runtime.GC()
	err = sess.withWatch(func() {
		for r := 0; r < rounds; r++ {
			sess.round(share(len(ticks), r))
			tickEnd[r] = min(sess.next, len(sess.recs))
			c.close()
			rd.round(secs(cfg.seconds * wwReadShare / rounds))
			rc.close()
			readEnd[r] = len(rd.recs)
		}
	})
	if err != nil {
		return nil, err
	}
	sessionMetrics(out, sess)
	rd.metrics(out)
	cacheShares(out, before, st.srv.Engine().Stats())
	strategyShares(out, evBefore, evalCounts(st.srv.Registry()))

	valStart := time.Now()
	o := newOracle()
	if sess.start != start {
		out.mismatch("watch header at v%d, store was at v%d", sess.start, start)
	}
	if err := checkReads(out, o, warmRecs, ds.main, start, true); err != nil {
		return nil, err
	}
	rp, err := newReplayer(out, o, sess, ds.main)
	if err != nil {
		return nil, err
	}
	// Side reads of round r ran on the state after the round's ticks.
	from := 0
	for r := 0; r < rounds; r++ {
		if err := rp.advance(tickEnd[r]); err != nil {
			return nil, err
		}
		version := start
		if tickEnd[r] > 0 {
			version = sess.recs[tickEnd[r]-1].version
		}
		if err := checkReads(out, o, rd.recs[from:readEnd[r]], ds.main, version, true); err != nil {
			return nil, err
		}
		from = readEnd[r]
	}
	if err := rp.finish(); err != nil {
		return nil, err
	}
	out.stamp["validate_s"] = time.Since(valStart).Seconds()
	return out, nil
}

// directWriter replays /v1/db/insert and /v1/db/delete on one durable
// sharded store, with the server's OnApply wiring re-created here so
// the result-cache invalidation and the delta hand-off get spans.
type directWriter struct {
	rec       *recorder
	eng       *engine.Engine
	sh        *shard.Sharded
	name      string
	walPath   string
	cur       atomic.Pointer[spanRef] // the store.insert span in progress
	deltaMark atomic.Int64            // when DeltaApply was called
	walBytes  int64
	userBytes int64
}

// onFsync is store.Options.OnFsync: the fsync just ended.
func (w *directWriter) onFsync(d time.Duration) {
	if sp := w.cur.Load(); sp != nil {
		end := w.rec.now()
		w.rec.add("store.fsync", sp, end-int64(d), end, nil)
	}
}

// onApply mirrors the server's attach hook.
func (w *directWriter) onApply(c store.Change) {
	sp := w.cur.Load()
	t0 := w.rec.now()
	w.eng.ApplyWrite(w.name, c.Version, c.Rels)
	t1 := w.rec.now()
	w.rec.add("engine.apply_write", sp, t0, t1, nil)
	view := w.sh.View()
	w.deltaMark.Store(t1)
	w.eng.DeltaApply(w.name, c, func() *db.Database { return view.Union() })
	w.rec.add("delta.apply", sp, t1, w.rec.now(), nil)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// write is the /v1/db/insert (or delete) handler: decode, parse the
// facts, apply the batch to the store, encode the acknowledgement. The
// delta decision it hands off is timed from DeltaApply to DeltaQuiesce.
func (w *directWriter) write(tk tick, keep bool) (store.Change, error) {
	body, err := json.Marshal(server.DBWriteRequest{Database: w.name, Facts: tk.text})
	if err != nil {
		return store.Change{}, err
	}
	root := w.rec.request("write", keep)
	var req server.DBWriteRequest
	root.timed("server.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return store.Change{}, err
	}
	var batch *db.Database
	root.timed("parse.facts", func() { batch, err = parse.Database(req.Facts) })
	if err != nil {
		return store.Change{}, err
	}
	walBefore := fileSize(w.walPath)
	ins := root.child("store.insert")
	w.cur.Store(ins)
	w.deltaMark.Store(0)
	var change store.Change
	if tk.del {
		change, err = w.sh.DeleteDB(batch)
	} else {
		change, err = w.sh.ApplyDB(batch)
	}
	w.cur.Store(nil)
	ins.end()
	if err != nil {
		return store.Change{}, err
	}
	if after := fileSize(w.walPath); after > walBefore {
		// A checkpoint truncates the log; such writes are not counted.
		w.walBytes += after - walBefore
		w.userBytes += int64(len(req.Facts))
	}
	root.timed("server.encode", func() {
		_, err = json.Marshal(server.DBWriteResponse{Database: w.name, Version: w.sh.Version(),
			Applied: change.Applied, Touched: change.Rels})
	})
	root.end()
	if m := w.deltaMark.Load(); m > 0 {
		w.eng.DeltaQuiesce(w.name)
		if keep {
			w.rec.add("delta.decide", nil, m, w.rec.now(), nil)
		}
	}
	return change, err
}

func traceWriteWatch(cfg config) (*outcome, error) {
	cfg = withBlocks(cfg, wwBlocks)
	ds := makeDataset(cfg)
	ticks := genTicks(cfg.seed, ds.main, cfg.blocks, int(wwRate*cfg.seconds/2), wwBatch, 1)
	out := newOutcome()
	out.stamp["blocks"] = cfg.blocks
	out.stamp["fsync"] = "every batch"
	o := newOracle()
	shadow := ds.main.Clone()

	// Untraced pass over HTTP: the reference for server.transport_us
	// and the source of gen.late_p95_ms.
	st, err := setupWriteWatch(cfg, ds)
	if err != nil {
		return nil, err
	}
	c := newClient(1)
	sess := &session{c: c, base: st.node.url, database: "ww", rate: wwRate, ticks: ticks}
	err = sess.withWatch(func() { sess.round(len(ticks)) })
	c.close()
	st.stop()
	if err != nil {
		return nil, err
	}
	sessionMetrics(out, sess)
	if err := checkSession(out, o, sess, ds.main); err != nil {
		return nil, err
	}
	var service []float64
	for _, r := range sess.recs {
		if r.err == nil {
			service = append(service, float64(r.ack.Sub(r.sent))/1e3)
		}
	}

	// Traced replay of the same ticks on a fresh durable store.
	rec := newRecorder()
	dir, err := freshDataDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w := &directWriter{rec: rec, name: "ww", walPath: filepath.Join(dir, "ww.wal")}
	stores, err := openStores(dir, true, w.onFsync)
	if err != nil {
		return nil, err
	}
	defer stores.CloseAll()
	setup := rec.request("setup", true)
	setup.timed("db.load", func() {
		var d *db.Database
		if d, err = parse.Database(ds.mainText); err != nil {
			return
		}
		if w.sh, err = stores.Create("ww"); err != nil {
			return
		}
		_, err = w.sh.ApplyDB(d)
	})
	if err != nil {
		return nil, err
	}
	setup.timed("db.intern", func() { w.sh.View().Union().Interned() })
	setup.end()
	srv := server.New(serverOptions(stores))
	defer srv.Engine().Close()
	w.eng = srv.Engine()
	w.sh.SetOnApply(w.onApply) // the server's attach hook, re-created with spans
	r := &directReader{rec: newRecorder(), eng: w.eng, stores: stores, lastSeen: map[string]uint64{}}
	for _, q := range warmQueries() {
		if _, _, err := r.read("ww", q, false); err != nil {
			return nil, err
		}
	}
	r.rec = rec
	wq, err := parse.Query(watchQuery)
	if err != nil {
		return nil, err
	}
	view := w.sh.View()
	watch, state, err := w.eng.RegisterWatch(wq, "ww", delta.Snapshot{DB: view.Union(), Version: view.Version()})
	if err != nil {
		return nil, err
	}
	events := make(chan []frame, 1)
	go func() {
		fs := []frame{{ev: server.WatchEvent{Type: server.WatchEventState, Version: state.Version, Verdict: state.Verdict}}}
		for ev := range watch.Events() {
			fs = append(fs, deltaFrame(ev))
		}
		events <- fs
	}()
	recheck, err := core.Prepare(wq)
	if err != nil {
		return nil, err
	}
	skip0, reeval0, flip0 := w.eng.DeltaCounters()
	// The replay keeps the session's open-loop schedule, so the delta
	// worker shares the CPU as it does in the untraced run.
	replay := &session{ticks: ticks, start: state.Version}
	begin := time.Now()
	writes := 0
	for i, tk := range ticks {
		if d := time.Until(begin.Add(time.Duration(float64(i) * float64(time.Second) / wwRate))); d > 0 {
			time.Sleep(d)
		}
		keep := keepSpans(i)
		var tr tickRec
		change, err := w.write(tk, keep)
		if err == nil {
			tr.version, tr.applied = w.sh.Version(), change.Applied
			writes++
			tr.certain, _, err = r.read("ww", readFamilies[tk.family].query, keep)
		}
		tr.err = err
		replay.recs = append(replay.recs, tr)
		if err != nil {
			break
		}
		if keep {
			t0 := rec.now()
			recheck.Certain(w.sh.View().Union())
			rec.add("delta.recheck_all", nil, t0, rec.now(), nil)
		}
	}
	w.eng.DeltaQuiesce("ww")
	skip1, reeval1, flip1 := w.eng.DeltaCounters()
	w.eng.UnregisterWatch(watch)
	replay.streams = []stream{{frames: <-events, until: w.sh.Version()}}
	if err := checkSession(out, o, replay, shadow); err != nil {
		return nil, err
	}

	layerMetrics(out, rec, r.tally)
	skipped, reevals := float64(skip1-skip0), float64(reeval1-reeval0+flip1-flip0)
	out.metrics["delta.skip_ratio"] = ratio(skipped, skipped+reevals)
	out.metrics["delta.reevals_per_write"] = ratio(reevals, float64(writes))
	out.metrics["store.wal_bytes_per_user_byte"] = ratio(float64(w.walBytes), float64(w.userBytes))
	out.metrics["server.transport_us"] = median(service) - median(rec.roots[true]["write"])
	out.stamp["replayed"] = writes
	return out, writeSpans(cfg, out, rec)
}

// deltaFrame renders a delta event as the watch frame the server would
// stream for it.
func deltaFrame(ev delta.Event) frame {
	now := time.Now()
	if ev.Resync {
		return frame{ev: server.WatchEvent{Type: server.WatchEventState, Version: ev.Version, Verdict: ev.To}, at: now}
	}
	from := ev.From
	return frame{ev: server.WatchEvent{Type: server.WatchEventFlip, Version: ev.Version, From: &from, Verdict: ev.To}, at: now}
}
