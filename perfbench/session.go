package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cqa/internal/db"
	"cqa/internal/parse"
	"cqa/internal/schema"
	"cqa/internal/server"
)

// readRec is one closed-loop read.
type readRec struct {
	query   string
	certain bool
	version uint64
	lat     time.Duration
	done    time.Duration // completion, from the reader's first round
	err     error
}

// reader is a closed loop of conns clients, each sending its next read
// only after the previous answer arrived. It runs in rounds; the
// operation sequence continues across rounds.
type reader struct {
	c        *client
	base, db string
	next     func(i int) string
	conns    int
	seq      int
	start    time.Time
	recs     []readRec
	rates    []float64 // answered reads per second, per round
}

func newReader(c *client, base, database string, next func(i int) string, conns int) *reader {
	return &reader{c: c, base: base, db: database, next: next, conns: conns}
}

// round reads for d.
func (r *reader) round(d time.Duration) {
	t0 := time.Now()
	if r.start.IsZero() {
		r.start = t0
	}
	deadline := t0.Add(d)
	var seq atomic.Int64
	seq.Store(int64(r.seq))
	var mu sync.Mutex
	var recs []readRec
	var wg sync.WaitGroup
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []readRec
			for time.Now().Before(deadline) {
				q := r.next(int(seq.Add(1) - 1))
				t := time.Now()
				var resp server.CertainResponse
				err := r.c.post(context.Background(), r.base+"/v1/certain", server.CertainRequest{Query: q, Database: r.db}, &resp)
				now := time.Now()
				local = append(local, readRec{query: q, certain: resp.Certain, version: resp.Version,
					lat: now.Sub(t), done: now.Sub(r.start), err: err})
			}
			mu.Lock()
			recs = append(recs, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.seq = int(seq.Load())
	sort.Slice(recs, func(i, j int) bool { return recs[i].done < recs[j].done })
	answered := 0
	for _, rc := range recs {
		if rc.err == nil {
			answered++
		}
	}
	r.rates = append(r.rates, float64(answered)/time.Since(t0).Seconds())
	r.recs = append(r.recs, recs...)
}

// metrics fills the read_* metrics: throughput is the median over the
// rounds, latencies are grouped quantiles of the time-ordered sample.
func (r *reader) metrics(out *outcome) {
	lats := make([]float64, 0, len(r.recs))
	for _, rc := range r.recs {
		if rc.err == nil {
			lats = append(lats, msOf(int64(rc.lat)))
		}
	}
	out.metrics["read_rps"] = median(r.rates)
	out.metrics["read_p50_ms"] = groupedQuantile(lats, 0.5)
	out.metrics["read_p95_ms"] = groupedQuantile(lats, 0.95)
	// p99 moves most with the host's slow stretches (see METRICS.md);
	// the stamp keeps it.
	out.stamp["read_p99_ms"] = groupedQuantile(lats, 0.99)
	out.stamp["reads"] = len(r.recs)
}

// checkReads validates closed-loop reads against the oracle on a
// database that did not change during the loop.
func checkReads(out *outcome, o *oracle, recs []readRec, d *db.Database, version uint64, checkVersion bool) error {
	truth := map[string]bool{}
	out.attempted += len(recs)
	for _, r := range recs {
		if r.err != nil {
			out.mismatch("read %q failed: %v", r.query, r.err)
			continue
		}
		if checkVersion && r.version != version {
			out.mismatch("read %q answered at v%d, database is at v%d", r.query, r.version, version)
			continue
		}
		want, ok := truth[r.query]
		if !ok {
			q, err := parse.Query(r.query)
			if err != nil {
				return err
			}
			if want, err = o.certain(q, d); err != nil {
				return err
			}
			truth[r.query] = want
		}
		if r.certain != want {
			out.mismatch("read %q: served %v, oracle %v", r.query, r.certain, want)
		}
	}
	return nil
}

// tickRec is one executed session tick.
type tickRec struct {
	due, sent time.Time
	ack       time.Time
	version   uint64
	applied   int
	readLat   time.Duration
	certain   bool
	err       error
}

// stream is the frames of one watch subscription and the last version
// acknowledged while it was open.
type stream struct {
	frames []frame
	until  uint64
}

// session is a write session on one connection: each tick writes its
// batch, then reads the family query the batch invalidated. With a
// positive rate a round is an open loop (its i-th tick is due at the
// round's start + i/rate); with rate 0 a closed loop (a tick is due
// when the previous one ended). A second connection holds the watch.
type session struct {
	c        *client
	base     string
	database string
	ticks    []tick
	rate     float64
	next     int // first tick of the next round
	recs     []tickRec
	streams  []stream
	start    uint64 // version before the first tick
	version  uint64 // last acknowledged version
}

// withWatch runs fn with a watch stream open, then waits for the last
// flip fn caused before closing the stream.
func (s *session) withWatch(fn func()) error {
	ws, err := openWatch(s.base, s.database, watchQuery)
	if err != nil {
		return err
	}
	if len(s.streams) == 0 {
		s.start = ws.header()
		s.version = s.start
	}
	first := len(s.recs)
	fn()
	for i := len(s.recs) - 1; i >= first; i-- {
		if s.ticks[i].toggle && s.recs[i].err == nil {
			_ = ws.waitVersion(s.recs[i].version, 10*time.Second)
			break
		}
	}
	s.streams = append(s.streams, stream{frames: ws.close(), until: s.version})
	return nil
}

// round runs the next n ticks. A failed tick ends the session: the
// replay counts it, and the shadow cannot follow past it.
func (s *session) round(n int) { s.roundUntil(n, time.Time{}) }

// roundFor runs ticks for d, as many as fit.
func (s *session) roundFor(d time.Duration) { s.roundUntil(len(s.ticks), time.Now().Add(d)) }

// roundUntil runs the next n ticks, starting none after until (when set).
func (s *session) roundUntil(n int, until time.Time) {
	begin := time.Now()
	end := min(s.next+n, len(s.ticks))
	for i := s.next; i < end; i++ {
		if !until.IsZero() && time.Now().After(until) {
			end = i
			break
		}
		tk := s.ticks[i]
		var r tickRec
		r.due = time.Now()
		if s.rate > 0 {
			r.due = begin.Add(time.Duration(float64(i-s.next) * float64(time.Second) / s.rate))
			if d := time.Until(r.due); d > 0 {
				time.Sleep(d)
			}
		}
		r.sent = time.Now()
		path := "/v1/db/insert"
		if tk.del {
			path = "/v1/db/delete"
		}
		var ack server.DBWriteResponse
		r.err = s.c.post(context.Background(), s.base+path, server.DBWriteRequest{Database: s.database, Facts: tk.text}, &ack)
		if r.err == nil {
			r.ack = time.Now()
			r.version, r.applied = ack.Version, ack.Applied
			s.version = ack.Version
			t := time.Now()
			var resp server.CertainResponse
			r.err = s.c.post(context.Background(), s.base+"/v1/certain",
				server.CertainRequest{Query: readFamilies[tk.family].query, Database: s.database}, &resp)
			r.readLat = time.Since(t)
			r.certain = resp.Certain
		}
		s.recs = append(s.recs, r)
		if r.err != nil {
			s.next = len(s.ticks)
			return
		}
	}
	s.next = end
}

// header returns the version of the stream's header frame.
func (ws *watchStream) header() uint64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.frames[0].ev.Version
}

// familyMedian is the median over read families of each family's
// median. The families' costs form separate clusters (the hard query's
// read is ten times cheaper than a sweep), and the pooled median of an
// even mix falls in the gap between two of them, where it jumps from
// run to run; the families' own medians do not.
func familyMedian(xs []float64, fam []int) float64 {
	by := make([][]float64, len(readFamilies))
	for i, x := range xs {
		by[fam[i]] = append(by[fam[i]], x)
	}
	var meds []float64
	for _, f := range by {
		if len(f) > 0 {
			meds = append(meds, groupedQuantile(f, 0.5))
		}
	}
	return median(meds)
}

// sessionMetrics fills the write, fresh-read and flip metrics.
func sessionMetrics(out *outcome, s *session) {
	var writes, fresh, late, lags []float64
	var writeFam, freshFam, lagFam []int
	byVersion := map[uint64]int{}
	for i, r := range s.recs {
		if r.err != nil {
			continue
		}
		writes = append(writes, msOf(int64(r.ack.Sub(r.due))))
		fresh = append(fresh, msOf(int64(r.readLat)))
		writeFam = append(writeFam, s.ticks[i].family)
		late = append(late, msOf(int64(r.sent.Sub(r.due))))
		byVersion[r.version] = i
	}
	freshFam = writeFam
	flips := 0
	for _, st := range s.streams {
		for _, f := range st.frames {
			if f.ev.Type != server.WatchEventFlip {
				continue
			}
			flips++
			if i, ok := byVersion[f.ev.Version]; ok {
				lags = append(lags, msOf(int64(f.at.Sub(s.recs[i].due))))
				lagFam = append(lagFam, s.ticks[i].family)
			}
		}
	}
	out.metrics["write_p50_ms"] = familyMedian(writes, writeFam)
	out.metrics["fresh_read_p50_ms"] = familyMedian(fresh, freshFam)
	out.metrics["flip_lag_p50_ms"] = familyMedian(lags, lagFam)
	// The session tails vary too much from run to run to gate on (see
	// METRICS.md); the stamp keeps them.
	out.stamp["write_p95_ms"] = groupedQuantile(writes, 0.95)
	out.stamp["fresh_read_p95_ms"] = groupedQuantile(fresh, 0.95)
	out.stamp["flip_lag_p95_ms"] = groupedQuantile(lags, 0.95)
	out.metrics["gen.late_p95_ms"] = groupedQuantile(late, 0.95)
	out.stamp["writes"] = len(writes)
	out.stamp["flips"] = flips
	out.stamp["flip_share"] = ratio(float64(flips), float64(len(writes)))
	if s.rate > 0 {
		out.stamp["write_rate_per_s"] = s.rate
	} else {
		out.stamp["write_rate_per_s"] = "closed loop"
	}
}

// replayer checks a session after the fact: it replays the ticks on a
// shadow of the session's database and checks every fresh read and
// every watch frame against the oracle at the version the write
// acknowledged. advance lets reads taken between rounds be checked on
// the shadow at their version.
type replayer struct {
	out      *outcome
	o        *oracle
	s        *session
	shadow   *db.Database
	wq       schema.Query
	truth    map[uint64]bool
	versions []uint64
	next     int
	prev     uint64
	broken   bool
}

func newReplayer(out *outcome, o *oracle, s *session, shadow *db.Database) (*replayer, error) {
	wq, err := parse.Query(watchQuery)
	if err != nil {
		return nil, err
	}
	rp := &replayer{out: out, o: o, s: s, shadow: shadow, wq: wq, truth: map[uint64]bool{},
		versions: []uint64{s.start}, prev: s.start}
	rp.truth[s.start], err = o.certain(wq, shadow)
	return rp, err
}

// advance replays ticks up to (not including) end.
func (rp *replayer) advance(end int) error {
	for ; rp.next < end && rp.next < len(rp.s.recs) && !rp.broken; rp.next++ {
		i, r, tk := rp.next, rp.s.recs[rp.next], rp.s.ticks[rp.next]
		rp.out.attempted += 2 // the write and its fresh read
		if r.err != nil {
			rp.out.mismatch("tick %d failed: %v", i, r.err)
			rp.broken = true // the shadow can no longer follow the served state
			return nil
		}
		applied := 0
		for _, f := range tk.facts {
			if tk.del {
				if rp.shadow.Has(f) {
					rp.shadow.Remove(f)
					applied++
				}
			} else if !rp.shadow.Has(f) {
				_ = rp.shadow.Insert(f)
				applied++
			}
		}
		if applied != r.applied || (applied > 0) != (r.version > rp.prev) {
			rp.out.mismatch("tick %d: applied %d at v%d, shadow applied %d after v%d", i, r.applied, r.version, applied, rp.prev)
		}
		rp.prev = r.version
		q, err := parse.Query(readFamilies[tk.family].query)
		if err != nil {
			return err
		}
		want, err := rp.o.certain(q, rp.shadow)
		if err != nil {
			return err
		}
		if want != r.certain {
			rp.out.mismatch("tick %d read %s at v%d: served %v, oracle %v", i, readFamilies[tk.family].name, r.version, r.certain, want)
		}
		if rp.truth[r.version], err = rp.o.certain(rp.wq, rp.shadow); err != nil {
			return err
		}
		rp.versions = append(rp.versions, r.version)
	}
	return nil
}

// finish replays the remaining ticks and checks every watch stream.
func (rp *replayer) finish() error {
	if err := rp.advance(len(rp.s.recs)); err != nil {
		return err
	}
	for _, st := range rp.s.streams {
		checkFrames(rp.out, st.frames, rp.truth, rp.versions, st.until)
	}
	return nil
}

// checkSession replays and checks a whole session.
func checkSession(out *outcome, o *oracle, s *session, shadow *db.Database) error {
	rp, err := newReplayer(out, o, s, shadow)
	if err != nil {
		return err
	}
	return rp.finish()
}

// checkFrames validates a watch stream the way loadgen.ValidateWatch
// does: every frame's verdict matches the oracle at its version, each
// flip starts from the verdict the stream had settled on, no flip is
// missing between two frames, and the stream ends on the truth at
// until, the last version acknowledged while it was open.
func checkFrames(out *outcome, frames []frame, truth map[uint64]bool, all []uint64, until uint64) {
	var versions []uint64
	for _, v := range all {
		if v <= until {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	between := func(lo, hi uint64, verdict bool) error {
		i := sort.Search(len(versions), func(i int) bool { return versions[i] > lo })
		for ; i < len(versions) && versions[i] < hi; i++ {
			if truth[versions[i]] != verdict {
				return fmt.Errorf("verdict changed at v%d but no flip frame covers it", versions[i])
			}
		}
		return nil
	}
	var settled bool
	var at uint64
	started := false
	for i, f := range frames {
		out.attempted++
		want, known := truth[f.ev.Version]
		if !known {
			out.mismatch("watch frame %d names v%d, which no write acknowledged", i, f.ev.Version)
			continue
		}
		switch f.ev.Type {
		case server.WatchEventState:
			if f.ev.Verdict != want {
				out.mismatch("watch state at v%d: %v, oracle %v", f.ev.Version, f.ev.Verdict, want)
			}
			settled, at, started = f.ev.Verdict, f.ev.Version, true
		case server.WatchEventHeartbeat:
			if f.ev.Verdict != want {
				out.mismatch("watch heartbeat at v%d: %v, oracle %v", f.ev.Version, f.ev.Verdict, want)
			}
		case server.WatchEventFlip:
			switch {
			case !started:
				out.mismatch("watch flip at v%d before the header", f.ev.Version)
			case *f.ev.From != settled:
				out.mismatch("watch flip at v%d from %v, stream had settled on %v: a flip was missed", f.ev.Version, *f.ev.From, settled)
			case f.ev.Verdict != want:
				out.mismatch("watch flip at v%d to %v, oracle %v: fabricated", f.ev.Version, f.ev.Verdict, want)
			default:
				if err := between(at, f.ev.Version, settled); err != nil {
					out.mismatch("watch: %v", err)
				}
			}
			settled, at = f.ev.Verdict, f.ev.Version
		}
	}
	if !started {
		out.mismatch("watch delivered no header state")
		return
	}
	if err := between(at, until+1, settled); err != nil {
		out.mismatch("watch tail: %v", err)
	}
}
