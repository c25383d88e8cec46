package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"cqa/internal/engine"
	"cqa/internal/metrics"
	"cqa/internal/obs"
	"cqa/internal/server"
	"cqa/internal/shard"
	"cqa/internal/store"
)

// The serving stack under test: server.New / server.NewRouter behind
// real loopback listeners inside the benchmark process, configured with
// the same defaults cqad applies (engine defaults, a registry, a tracer
// recording every request, and the store options of -data/-fsync).

// node is one HTTP server on a loopback listener.
type node struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return n, nil
}

// stop closes the listener and every connection, then waits for Serve
// to return. Long-lived watch streams are cut, not drained.
func (n *node) stop() {
	_ = n.hs.Close()
	<-n.done
}

// serverOptions mirrors cqad's defaults for one serving process.
func serverOptions(stores *shard.Set) server.Options {
	return server.Options{
		Engine:  engine.New(engine.Options{}),
		Stores:  stores,
		Metrics: metrics.NewRegistry(),
		Tracer:  obs.NewTracer(obs.TracerOptions{Sample: 1}),
	}
}

// openStores opens the store set as cqad -data dir [-fsync] does; an
// empty dir is the memory-only default.
func openStores(dir string, fsync bool, onFsync func(time.Duration)) (*shard.Set, error) {
	return shard.OpenSet(store.Options{Dir: dir, Sync: fsync, OnFsync: onFsync}, 1)
}

// client issues API calls over at most conns connections.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errStatus is a non-2xx API answer.
var errStatus = errors.New("non-2xx status")

// post sends body as JSON and decodes the answer into out.
func (c *client) post(ctx context.Context, url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%w %d from %s: %s", errStatus, resp.StatusCode, url, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// frame is one received watch frame with its receipt time.
type frame struct {
	ev server.WatchEvent
	at time.Time
}

// watchStream is one open /v1/watch subscription on its own connection.
type watchStream struct {
	mu     sync.Mutex
	frames []frame
	err    error
	cond   *sync.Cond
	cancel context.CancelFunc
	done   chan struct{}
}

// openWatch subscribes and returns once the header state arrived.
func openWatch(baseURL, database, query string) (*watchStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ws := &watchStream{cancel: cancel, done: make(chan struct{})}
	ws.cond = sync.NewCond(&ws.mu)
	body, _ := json.Marshal(server.WatchRequest{Database: database, Query: query})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/watch", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	go func() {
		defer close(ws.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			ev, err := server.ParseWatchEvent(sc.Bytes())
			now := time.Now()
			ws.mu.Lock()
			if err != nil {
				ws.err = err
			} else {
				ws.frames = append(ws.frames, frame{ev: ev, at: now})
			}
			ws.cond.Broadcast()
			ws.mu.Unlock()
		}
		ws.mu.Lock()
		if ws.err == nil && ctx.Err() == nil {
			ws.err = fmt.Errorf("watch stream ended: %v", sc.Err())
		}
		ws.cond.Broadcast()
		ws.mu.Unlock()
	}()
	if err := ws.waitVersion(0, 10*time.Second); err != nil {
		ws.close()
		return nil, err
	}
	return ws, nil
}

// waitVersion blocks until a frame at version ≥ v arrived.
func (ws *watchStream) waitVersion(v uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	t := time.AfterFunc(timeout, func() {
		ws.mu.Lock()
		ws.cond.Broadcast()
		ws.mu.Unlock()
	})
	defer t.Stop()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for {
		if ws.err != nil {
			return ws.err
		}
		if n := len(ws.frames); n > 0 && ws.frames[n-1].ev.Version >= v {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("watch: no frame at version ≥ %d within %v", v, timeout)
		}
		ws.cond.Wait()
	}
}

// close cuts the stream and waits for the reader to exit.
func (ws *watchStream) close() []frame {
	ws.cancel()
	<-ws.done
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.frames
}
