package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run's span recorder. Spans are recorded by the
// benchmark's own code around each call into a layer — the program is
// not instrumented — and kept in memory until the run writes them out.
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover.

// span is one recorded interval. Parent is the index of the causing
// span in the recorder (-1 for a request root); Req is shared by every
// span of one request.
type span struct {
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Parent int               `json:"parent"`
	Req    int               `json:"req"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// recorder holds every span of a traced run. Safe for concurrent use:
// the delta and fsync hooks record from the store's writer path.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	reqs  int
	// roots holds every request's root duration in microseconds, by
	// whether its spans were kept: requests replayed with recording off
	// measure the tracing overhead.
	roots map[bool]map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), roots: map[bool]map[string][]float64{true: {}, false: {}}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// request starts a root span for a new request and returns its handle.
// With keep false nothing below the root is recorded; only the root's
// duration is, for the tracing-overhead comparison.
func (r *recorder) request(name string, keep bool) *spanRef {
	r.mu.Lock()
	r.reqs++
	req := r.reqs
	r.mu.Unlock()
	if !keep {
		return &spanRef{r: r, idx: -1, req: req, name: name, start: r.now()}
	}
	return r.open(name, -1, req)
}

func (r *recorder) open(name string, parent, req int) *spanRef {
	s := span{Name: name, Start: r.now(), Parent: parent, Req: req}
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return &spanRef{r: r, idx: idx, req: req, name: name, start: s.Start}
}

// add records a finished span with explicit bounds (hooks that learn of
// an interval only after it ended, such as store.Options.OnFsync).
func (r *recorder) add(name string, parent *spanRef, start, end int64, attrs map[string]string) {
	s := span{Name: name, Start: start, End: end, Parent: -1, Attrs: attrs}
	if parent != nil {
		if parent.idx < 0 {
			return
		}
		s.Parent, s.Req = parent.idx, parent.req
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// spanRef is a handle on an open span.
type spanRef struct {
	r     *recorder
	idx   int // -1 when the request is not recorded
	req   int
	name  string
	start int64
}

// child opens a span caused by s.
func (s *spanRef) child(name string) *spanRef {
	if s.idx < 0 {
		return &spanRef{r: s.r, idx: -1, req: s.req}
	}
	return s.r.open(name, s.idx, s.req)
}

// attr labels the span.
func (s *spanRef) attr(k, v string) *spanRef {
	if s.idx < 0 {
		return s
	}
	s.r.mu.Lock()
	sp := &s.r.spans[s.idx]
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]string, 2)
	}
	sp.Attrs[k] = v
	s.r.mu.Unlock()
	return s
}

// end closes the span now.
func (s *spanRef) end() { s.endAt(s.r.now()) }

func (s *spanRef) endAt(t int64) {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.name != "" && (s.idx < 0 || s.r.spans[s.idx].Parent < 0) {
		keep := s.idx >= 0
		s.r.roots[keep][s.name] = append(s.r.roots[keep][s.name], float64(t-s.start)/1e3)
	}
	if s.idx >= 0 {
		s.r.spans[s.idx].End = t
	}
}

// timed runs fn inside a child span of s.
func (s *spanRef) timed(name string, fn func()) {
	c := s.child(name)
	fn()
	c.end()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the union of its children's intervals (clipped to the span).
func (r *recorder) selfTimes() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(r.spans))
	for i, s := range r.spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			c := r.spans[k]
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		curA, curB = -1, -1
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfBy collects self times in microseconds per span name, keeping
// only spans for which keep returns true (nil keeps all).
func (r *recorder) selfBy(keep func(s span) bool) map[string][]float64 {
	self := r.selfTimes()
	out := make(map[string][]float64)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.spans {
		if keep != nil && !keep(s) {
			continue
		}
		out[s.Name] = append(out[s.Name], float64(self[i])/1e3)
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
