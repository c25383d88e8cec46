package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cqa/internal/db"
	"cqa/internal/engine"
	"cqa/internal/naive"
	"cqa/internal/shard"
)

// newRouterTier starts n empty shard servers and a router over them.
func newRouterTier(t *testing.T, n int) (router string, shards []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, ts := newTestServer(t, Options{Databases: map[string]*db.Database{}})
		shards = append(shards, ts.URL)
	}
	rt := NewRouter(RouterOptions{Shards: shards, Options: Options{Engine: engine.New(engine.Options{})}})
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return rts.URL, shards
}

// diffDB draws the differential's database: R(a | b) and S(a | b) on
// some keys of dom, T(a, b | c) on some key pairs, with one or two
// facts per block so that some blocks are inconsistent.
func diffDB(rng *rand.Rand, dom []string) *db.Database {
	d := db.New()
	d.MustDeclare("R", 2, 1)
	d.MustDeclare("S", 2, 1)
	d.MustDeclare("T", 3, 2)
	pick := func() string { return dom[rng.Intn(len(dom))] }
	for _, rel := range []string{"R", "S"} {
		for _, k := range dom {
			if rng.Float64() < 0.3 {
				continue
			}
			for n := 1 + rng.Intn(2); n > 0; n-- {
				d.MustInsert(db.F(rel, k, pick()))
			}
		}
	}
	for i := 0; i < 8; i++ {
		a, b := pick(), pick()
		for n := 1 + rng.Intn(2); n > 0; n-- {
			d.MustInsert(db.F("T", a, b, pick()))
		}
	}
	return d
}

// diffTemplates are the differential's query shapes; %a, %b and %v
// become constants of the database's domain. Single atoms plan scatter,
// joins on one ground key pinned, joins on two ground keys pinned or
// union by placement, and joins with a variable key union.
var diffTemplates = []string{
	"R('%a' | y)", "R(x | '%v')", "S(x | y)", "T('%a', '%b' | z)", "T(x, '%b' | '%v')", "R('%a' | '%v')",
	"R('%a' | y), !S('%a' | y)", "R('%a' | y), S('%a' | y)", "R('%a' | y), !S('%a' | '%v')",
	"R('%a' | y), !S('%b' | y)", "T('%a', '%b' | y), !R('%a' | y)", "R('%a' | y), S('%b' | z)",
	"R(x | y), !S(x | y)", "R(x | y), S(y | z)", "R(x | y), !S(y | x)",
	"T(x, y | z), !R(x | z)", "R(x | y), T(x, y | z)", "R('%a' | y), S(y | z)",
}

// TestRouterDifferentialVsNaive is the correctness gate for router
// pushdown: every plan the router forwards (scatter, pinned) or gathers
// (union) over 3 shard servers must answer as the naive all-repairs
// oracle does on the unsharded database.
func TestRouterDifferentialVsNaive(t *testing.T) {
	router, _ := newRouterTier(t, 3)
	rng := rand.New(rand.NewSource(13))
	dom := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	plans := map[string]int{}
	const perDB = 60
	for round := 0; round < 6; round++ {
		full := diffDB(rng, dom)
		name := fmt.Sprintf("d%d", round)
		mustCreate(t, router, DBCreateRequest{Name: name, Facts: full.String()})
		for i := 0; i < perDB; i++ {
			src := diffTemplates[rng.Intn(len(diffTemplates))]
			src = strings.NewReplacer("%a", dom[rng.Intn(len(dom))], "%b", dom[rng.Intn(len(dom))],
				"%v", dom[rng.Intn(len(dom))]).Replace(src)
			q := mustQuery(t, src)
			resp := postJSON(t, router+"/v1/certain", CertainRequest{Query: src, Database: name, Explain: true})
			if resp.StatusCode != http.StatusOK {
				eb := decodeBody[ErrorBody](t, resp)
				t.Fatalf("%s on %s: status %d %+v", src, name, resp.StatusCode, eb.Error)
			}
			ans := decodeBody[CertainResponse](t, resp)
			if want := naive.IsCertain(q, full); ans.Certain != want {
				t.Fatalf("%s on %s (plan %s): router says %v, oracle %v\n%s",
					src, name, ans.Explain.ShardPlan, ans.Certain, want, full)
			}
			plans[ans.Explain.ShardPlan]++
		}
	}
	t.Logf("plans exercised: %v", plans)
	for _, p := range []string{engine.ShardPlanScatter, engine.ShardPlanPinned, engine.ShardPlanUnion} {
		if plans[p] < 30 {
			t.Errorf("plan %s exercised %d times, want ≥ 30 (%v)", p, plans[p], plans)
		}
	}
}

// A query atom whose arity or key differs from the stored relation's is
// a typed 422 bad_query naming both signatures — on a plain server, on
// forwarded and union router reads, in a batch, and at watch
// registration — never an evaluation panic. A watch whose relation is
// declared later under another signature ends instead.
func TestSignatureMismatchIsBadQuery(t *testing.T) {
	_, pts := newTestServer(t, Options{Databases: map[string]*db.Database{}})
	plain := pts.URL
	router, _ := newRouterTier(t, 2)
	for _, base := range []string{plain, router} {
		mustCreate(t, base, DBCreateRequest{Name: "d", Facts: "R(k0 | a, b)\nS(a | k0)\n"})
	}
	wantBadQuery := func(what string, resp *http.Response) {
		t.Helper()
		eb := decodeBody[ErrorBody](t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity || eb.Error.Code != "bad_query" ||
			!strings.Contains(eb.Error.Message, "[3, 1]") || !strings.Contains(eb.Error.Message, "[4, 1]") {
			t.Errorf("%s: status %d, error %+v; want 422 bad_query naming [3, 1] and [4, 1]", what, resp.StatusCode, eb.Error)
		}
	}
	for _, c := range []struct{ where, base string }{{"plain", plain}, {"router", router}} {
		for _, query := range []string{
			"R('k0' | x, y, z)",               // forwarded: scatter
			"R('k0' | x, y, z), !S(x | 'k0')", // forwarded: pinned or union by placement
			"R(x | y, z, w), !S(y | x)",       // union
		} {
			wantBadQuery(c.where+" certain "+query,
				postJSON(t, c.base+"/v1/certain", CertainRequest{Query: query, Database: "d"}))
			wantBadQuery(c.where+" watch "+query,
				postJSON(t, c.base+"/v1/watch", WatchRequest{Query: query, Database: "d"}))
		}
	}
	br := decodeBody[BatchResponse](t, postJSON(t, plain+"/v1/batch", BatchRequest{Query: "R(x | y, z, w)", Databases: []string{"d"}}))
	if len(br.Results) != 1 || !strings.Contains(br.Results[0].Error, "[4, 1]") {
		t.Errorf("batch item: %+v, want a signature error", br.Results)
	}

	// A watch over a relation the database does not know yet ends its
	// stream when a write declares that relation under another
	// signature, and the server keeps serving.
	events := watchStream(t, plain, "d", "U(x | y, z)")
	if ev := <-events; ev.Type != WatchEventState {
		t.Fatalf("watch header %+v", ev)
	}
	postJSON(t, plain+"/v1/db/insert", DBWriteRequest{Database: "d", Facts: "U(a | b)"}).Body.Close()
	timeout := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-events:
		case <-timeout:
			t.Fatal("watch stream still open after its relation was redeclared")
		}
	}
	resp := postJSON(t, plain+"/v1/certain", CertainRequest{Query: "U(x | y)", Database: "d"})
	if ans := decodeBody[CertainResponse](t, resp); !ans.Certain {
		t.Errorf("server after the redeclaration: %+v", ans)
	}
}

// A union read gathers only the relations the query mentions: a large
// unrelated T ships none of its bytes, the gathered bytes are counted
// per shard, and the answer still matches the oracle.
func TestRouterUnionGathersQueryRelations(t *testing.T) {
	router, shards := newRouterTier(t, 2)
	full := db.New()
	full.MustDeclare("R", 2, 1)
	full.MustDeclare("T", 2, 1)
	for i := 0; i < 8; i++ {
		full.MustInsert(db.F("R", fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i%3)))
	}
	full.MustInsert(db.F("R", "k0", "v9"))
	for i := 0; i < 2000; i++ {
		full.MustInsert(db.F("T", fmt.Sprintf("t%d", i), strings.Repeat("x", 20)))
	}
	mustCreate(t, router, DBCreateRequest{Name: "d", Facts: full.String()})
	tBytes := len(full.String())

	query := "R(x | 'v1')"
	// Single atoms forward; an R-only join needs the union plan.
	union := "R(x | 'v1'), !R2(x | 'v0')"
	full.MustDeclare("R2", 2, 1)
	for _, src := range []string{query, union} {
		ans := decodeBody[CertainResponse](t, postJSON(t, router+"/v1/certain", CertainRequest{Query: src, Database: "d", Explain: true}))
		if want := naive.IsCertain(mustQuery(t, src), full); ans.Certain != want {
			t.Fatalf("%s: router %v, oracle %v", src, ans.Certain, want)
		}
		if src == union && ans.Explain.ShardPlan != engine.ShardPlanUnion {
			t.Fatalf("%s planned %s, want union", src, ans.Explain.ShardPlan)
		}
	}
	exp := scrapeMetrics(t, router)
	var gathered float64
	for i := range shards {
		v, ok := exp.Value("shard_gather_bytes_total", "shard", fmt.Sprint(i))
		if !ok || v == 0 {
			t.Errorf("shard_gather_bytes_total{shard=%d} = %v (present %v), want > 0", i, v, ok)
		}
		gathered += v
	}
	if gathered >= float64(tBytes)/10 {
		t.Errorf("union read gathered %.0f bytes; T alone renders to %d, so T was shipped", gathered, tBytes)
	}

	// The export filter itself: only the named relations, facts and
	// signatures both.
	resp, err := http.Get(shards[0] + "/v1/db/facts?db=d&rels=R,R2")
	if err != nil {
		t.Fatal(err)
	}
	fr := decodeBody[FactsResponse](t, resp)
	if strings.Contains(fr.Facts, "T(") || len(fr.Relations) != 1 || fr.Relations[0].Name != "R" {
		t.Errorf("rels=R,R2 export: relations %+v, facts %q", fr.Relations, fr.Facts)
	}
}

// watchStream opens a /v1/watch stream and relays its parsed frames.
func watchStream(t *testing.T, base, database, query string) <-chan WatchEvent {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	body, _ := json.Marshal(WatchRequest{Database: database, Query: query})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("watch %s: status %d", base, resp.StatusCode)
	}
	out := make(chan WatchEvent, 1024)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if ev, err := ParseWatchEvent(sc.Bytes()); err == nil {
				out <- ev
			}
		}
	}()
	return out
}

// flipsOf collects want flip frames from a stream (failing on a
// timeout), then checks that no further flip arrives for a while.
func flipsOf(t *testing.T, what string, events <-chan WatchEvent, want int) []WatchEvent {
	t.Helper()
	var flips []WatchEvent
	timeout := time.After(10 * time.Second)
	for len(flips) < want {
		select {
		case ev := <-events:
			switch ev.Type {
			case WatchEventFlip:
				flips = append(flips, ev)
			case WatchEventState:
				t.Fatalf("%s: state frame %+v mid-stream; flips may have collapsed", what, ev)
			}
		case <-timeout:
			t.Fatalf("%s: %d flips after 10s, want %d", what, len(flips), want)
		}
	}
	quiet := time.After(300 * time.Millisecond)
	for {
		select {
		case ev := <-events:
			if ev.Type != WatchEventHeartbeat {
				t.Fatalf("%s: frame %+v after the last flip", what, ev)
			}
		case <-quiet:
			return flips
		}
	}
}

// A router watch on a pinned join takes the owning shard's stream
// verdicts: while writes that flip the pinned block race writes to the
// other shard, the router relays exactly the owner's flips, one for
// one, at increasing global versions.
func TestRouterPinnedWatchMatchesOwner(t *testing.T) {
	router, shards := newRouterTier(t, 2)
	const kp = "kp"
	owner := shard.Owner("R", []string{kp}, 2)
	var other []string
	for i := 0; len(other) < 4; i++ {
		if k := fmt.Sprintf("o%d", i); shard.Owner("R", []string{k}, 2) != owner {
			other = append(other, k)
		}
	}
	// Bulk on the owning shard makes re-gathering its slice slower than
	// a write, so a relay that re-evaluated on gathered facts would see
	// flip pairs collapse.
	seed := "R(kp | a)\n"
	for i := 0; i < 4000; i++ {
		if k := fmt.Sprintf("b%d", i); shard.Owner("R", []string{k}, 2) == owner {
			seed += fmt.Sprintf("R(%s | v)\nS(%s | w)\n", k, k)
		}
	}
	mustCreate(t, router, DBCreateRequest{Name: "d", Facts: seed})
	query := "R('kp' | x), !S('kp' | x)"
	resp := postJSON(t, router+"/v1/certain", CertainRequest{Query: query, Database: "d", Explain: true})
	if ans := decodeBody[CertainResponse](t, resp); ans.Explain.ShardPlan != engine.ShardPlanPinned || !ans.Certain {
		t.Fatalf("pinned read: %+v", ans)
	}
	routerEvents := watchStream(t, router, "d", query)
	ownerEvents := watchStream(t, shards[owner], "d", query)
	for _, ev := range []WatchEvent{<-routerEvents, <-ownerEvents} {
		if ev.Type != WatchEventState || !ev.Verdict {
			t.Fatalf("watch header %+v, want a certain state", ev)
		}
	}

	const flips = 20
	write := func(path, facts string) {
		resp := postJSON(t, router+path, DBWriteRequest{Database: "d", Facts: facts})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s %q: status %d", path, facts, resp.StatusCode)
		}
		resp.Body.Close()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3*flips; i++ {
			k := other[i%len(other)]
			write("/v1/db/insert", fmt.Sprintf("S(%s | a)\nR(%s | b)\n", k, k))
			write("/v1/db/delete", fmt.Sprintf("S(%s | a)\n", k))
		}
	}()
	for i := 0; i < flips; i++ {
		if i%2 == 0 {
			write("/v1/db/insert", "S(kp | a)") // S(kp, a) in every repair: not certain
		} else {
			write("/v1/db/delete", "S(kp | a)")
		}
	}
	<-done

	got := flipsOf(t, "router", routerEvents, flips)
	want := flipsOf(t, "owner shard", ownerEvents, flips)
	var last uint64
	for i := range got {
		if *got[i].From != *want[i].From || got[i].Verdict != want[i].Verdict {
			t.Fatalf("flip %d: router %v→%v, owner %v→%v", i, *got[i].From, got[i].Verdict, *want[i].From, want[i].Verdict)
		}
		if got[i].Verdict != (i%2 == 1) {
			t.Fatalf("flip %d turned the verdict %v; writes alternate starting from certain", i, got[i].Verdict)
		}
		if got[i].Version <= last {
			t.Fatalf("flip %d at version %d, not after %d", i, got[i].Version, last)
		}
		last = got[i].Version
	}
}
