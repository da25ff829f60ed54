package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send issues one request and reads the whole response body.
func send(ctx context.Context, c *http.Client, base string, o *op) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// conn is one keep-alive HTTP/1.1 connection a load worker owns: it writes
// a request and reads the response on its own goroutine, with none of
// http.Transport's per-connection reader and writer goroutines between the
// clock and the socket.
type conn struct {
	host string
	c    net.Conn
	br   *bufio.Reader
	wb   []byte
}

func dial(base string) (*conn, error) {
	host := strings.TrimPrefix(base, "http://")
	c, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &conn{host: host, c: c, br: bufio.NewReader(c)}, nil
}

// do sends one op and reads the whole response.
func (k *conn) do(o *op) (int, []byte, error) {
	k.wb = fmt.Appendf(k.wb[:0], "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		o.method, o.path, k.host, len(o.body))
	k.wb = append(k.wb, o.body...)
	if _, err := k.c.Write(k.wb); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// result is the outcome of one sent op. Times are offsets from the phase
// start; lo..hi is the window of conditions revisions the daemon may have
// answered under (published-and-acknowledged at send .. sent by completion).
type result struct {
	status          int
	body            []byte
	err             error
	due, sent, done time.Duration
	lo, hi          uint64
}

// busClock tracks conditions revisions from the client side.
type busClock struct {
	sent, acked atomic.Uint64 // highest revision sent / acknowledged
}

func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// maxWindows bounds how many consecutive windows the open loop's route
// latencies are split into (see routeWindows).
const maxWindows = 8

// recorder is one worker's private set of histograms; workers merge theirs
// after the phase, so recording takes no lock.
type recorder struct {
	byKind   [3]hist          // route, sequence, publish latency from due time
	routeWin [maxWindows]hist // route latency per window of the schedule
	late     hist             // how late each send left against its schedule
}

func (r *recorder) merge(o *recorder) {
	for i := range r.byKind {
		r.byKind[i].merge(&o.byKind[i])
	}
	for i := range r.routeWin {
		r.routeWin[i].merge(&o.routeWin[i])
	}
	r.late.merge(&o.late)
}

// routeWindows returns how many windows the open loop's route latencies
// are cut into: as many as leave at least 1000 samples (ten beyond the p99)
// in each, at most maxWindows. The reported p50 and p99 are the medians of
// the per-window values, so a stall of the shared machine confined to one
// window does not move them.
func routeWindows(ops []op) int {
	n := 0
	for i := range ops {
		if ops[i].kind == opRoute {
			n++
		}
	}
	return min(max(n/1000, 1), maxWindows)
}

// windowQuantile is the median over windows of each window's q-quantile.
func (r *recorder) windowQuantile(windows int, q float64) float64 {
	vs := make([]float64, windows)
	for i := range vs {
		vs[i] = r.routeWin[i].quantile(q)
	}
	return median(vs)
}

// doOp sends one op and fills its result.
func doOp(k *conn, o *op, start time.Time, bus *busClock, res *result) {
	res.sent = time.Since(start)
	res.lo = bus.acked.Load()
	if o.kind == opPublish {
		storeMax(&bus.sent, o.rev)
	}
	res.status, res.body, res.err = k.do(o)
	res.done = time.Since(start)
	if o.kind == opPublish && res.err == nil && res.status == http.StatusOK {
		storeMax(&bus.acked, o.rev)
	}
	res.hi = bus.sent.Load()
}

// openLoop sends ops on their fixed schedule over conns connections. A
// dispatcher hands each op to a free worker at its due time; when every
// connection is busy the op waits and leaves late, and its latency still
// counts from the due time, so a stall is charged to every request it
// delays (no coordinated omission).
func openLoop(ctx context.Context, base string, ops []op, conns, windows int, bus *busClock) (time.Time, []result, *recorder, error) {
	window := time.Duration(1)
	if len(ops) > 0 {
		window = ops[len(ops)-1].due/time.Duration(windows) + 1
	}
	ks, err := dialAll(base, conns)
	if err != nil {
		return time.Time{}, nil, nil, err
	}
	defer closeAll(ks)
	results := make([]result, len(ops))
	recs := make([]recorder, conns)
	jobs := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recs[w]
			for i := range jobs {
				o, res := &ops[i], &results[i]
				res.due = o.due
				doOp(ks[w], o, start, bus, res)
				rec.late.record(res.sent - o.due)
				rec.byKind[o.kind].record(res.done - o.due)
				if o.kind == opRoute {
					rec.routeWin[o.due/window].record(res.done - o.due)
				}
			}
		}()
	}
dispatch:
	for i := range ops {
		sleepUntil(start.Add(ops[i].due))
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	total := &recorder{}
	for i := range recs {
		total.merge(&recs[i])
	}
	return start, results, total, nil
}

func dialAll(base string, n int) ([]*conn, error) {
	ks := make([]*conn, 0, n)
	for range n {
		k, err := dial(base)
		if err != nil {
			closeAll(ks)
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

func closeAll(ks []*conn) {
	for _, k := range ks {
		k.c.Close() // read-only use from here on; nothing to flush
	}
}

// sleepUntil blocks the calling thread in nanosleep until t. Runtime
// timers fire through epoll_wait, whose timeout has millisecond
// granularity, so time.Sleep would send most requests up to a millisecond
// after their due time.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// closedLoop runs the capacity phase: conns connections, each sending its
// next op only after the previous reply, until dur elapses or ops run out.
// It returns the results of the ops sent and the phase's wall time.
func closedLoop(ctx context.Context, base string, ops []op, conns int, dur time.Duration, bus *busClock) ([]result, time.Duration, error) {
	ks, err := dialAll(base, conns)
	if err != nil {
		return nil, 0, err
	}
	defer closeAll(ks)
	results := make([]result, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < dur {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				doOp(ks[w], &ops[i], start, bus, &results[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := min(int(next.Load()), len(ops))
	return results[:n], elapsed, nil
}

// sseEvent is one server-sent event as the subscriber received it.
type sseEvent struct {
	event string
	id    uint64
	data  []byte
	at    time.Time
}

// subscriber holds one SSE stream open on its own connection and records
// every event it receives until stopped.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	ready  chan struct{} // closed at the first event

	mu     sync.Mutex
	events []sseEvent
	err    error
}

func subscribe(ctx context.Context, base string, o *op) (*subscriber, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, o.method, base+"/v2/venues/"+venueName+"/subscribe", bytes.NewReader(o.body))
	if err != nil {
		cancel()
		return nil, err
	}
	c := newClient(1)
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // best effort, for the message only
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{}), ready: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		var ev sseEvent
		first := true
		rd := bufio.NewReader(resp.Body)
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				if ctx.Err() == nil {
					s.mu.Lock()
					s.err = fmt.Errorf("subscriber stream ended: %w", err)
					s.mu.Unlock()
				}
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case line == "":
				ev.at = time.Now()
				s.mu.Lock()
				s.events = append(s.events, ev)
				s.mu.Unlock()
				ev = sseEvent{}
				if first {
					first = false
					close(s.ready)
				}
			case strings.HasPrefix(line, "event: "):
				ev.event = line[len("event: "):]
			case strings.HasPrefix(line, "id: "):
				ev.id, _ = strconv.ParseUint(line[len("id: "):], 10, 64) // a bad id fails the check as a mismatch
			case strings.HasPrefix(line, "data: "):
				ev.data = []byte(line[len("data: "):])
			}
		}
	}()
	select {
	case <-s.ready:
		return s, nil
	case <-s.done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return nil, fmt.Errorf("subscriber stream closed before its first event: %v", s.err)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("subscriber got no initial event within 30s")
	}
}

// stop closes the stream and waits for the reader to exit.
func (s *subscriber) stop() []sseEvent {
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}
