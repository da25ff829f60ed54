package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ikrq/internal/model"
	"ikrq/internal/search"
)

// Config tunes the serving daemon. The zero value picks production-safe
// defaults (see the field docs); cmd/ikrqd maps flags onto it.
type Config struct {
	// MaxInFlight bounds concurrently executing queries. Arrivals past the
	// bound are shed immediately with 429 and a Retry-After hint instead of
	// queueing — queueing under saturation only converts overload into
	// latency. Default: 4 × GOMAXPROCS.
	MaxInFlight int

	// QueryTimeout is the per-request deadline: the search context expires
	// after it and the query aborts between expansion batches with 504. A
	// request's timeout_ms can tighten it, never extend it. Default: 10s.
	QueryTimeout time.Duration

	// RetryAfter is the hint shed responses carry. Default: 1s.
	RetryAfter time.Duration

	// MaxBodyBytes bounds a query request body. Default: 1 MiB.
	MaxBodyBytes int64

	// MaxExpansions caps stamp expansions per query as a work bound (the
	// intentionally unpruned ToE\P variant grows exponentially and must not
	// be an unmetered endpoint); truncated results report stats.truncated.
	// Default: 300000, matching the benchmark harness; negative disables
	// the cap.
	MaxExpansions int

	// MaxSubscribers bounds live SSE streams on the conditions bus across
	// all venues; subscribe attempts past it are rejected with 429
	// subscriber_limit. Default: 64.
	MaxSubscribers int

	// SubscribeMaxAge bounds the lifetime of one subscribe stream; clients
	// reconnect to keep watching (picking up a fresh engine and revision on
	// the way). Default: 5m.
	SubscribeMaxAge time.Duration

	// SnapshotRoot is the only directory the reload endpoint may load
	// snapshot path overrides from: a ReloadRequest path must be relative
	// and resolve inside it. The reload endpoint shares the query listener,
	// so without this bound any client that can reach the query port could
	// repoint a venue at an arbitrary readable file (or wedge its loads on
	// a FIFO). Empty (the default) rejects every path override — reload
	// then only re-reads each venue's configured snapshot path, which is
	// always allowed.
	SnapshotRoot string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxExpansions == 0 {
		c.MaxExpansions = 300000
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 64
	}
	if c.SubscribeMaxAge <= 0 {
		c.SubscribeMaxAge = 5 * time.Minute
	}
	return c
}

// Server is the HTTP serving layer over a venue registry:
//
//	GET  /healthz                       liveness (503 while draining)
//	GET  /v1/venues                     registry status
//	POST /v1/venues/{venue}/query       one IKRQ query (QueryRequest JSON)
//	POST /v1/venues/{venue}/reload      hot-swap the venue's snapshot
//	POST /v2/venues/{venue}/query       versioned envelope: route or sequence
//	PUT  /v2/venues/{venue}/conditions  publish a venue-wide conditions revision
//	POST /v2/venues/{venue}/subscribe   SSE stream re-routing one envelope
//	GET  /debug/vars                    serving counters
//
// Queries run on the engines' pooled scratch under a per-request deadline;
// admission control sheds load beyond MaxInFlight with 429.
// Queries that carry no conditions overlay — v1 and v2 alike — run under
// the venue's published conditions revision (see bus.go).
type Server struct {
	reg *Registry
	cfg Config
	sem chan struct{}
	met *metrics
	mux *http.ServeMux
	bus *conditionsBus

	httpSrv  *http.Server
	draining chan struct{} // closed when Shutdown begins
}

// New builds a server over a registry.
func New(reg *Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		reg:      reg,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		met:      newMetrics(),
		mux:      http.NewServeMux(),
		bus:      newConditionsBus(),
		draining: make(chan struct{}),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/venues", s.handleVenues)
	s.mux.HandleFunc("POST /v1/venues/{venue}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/venues/{venue}/reload", s.handleReload)
	s.mux.HandleFunc("POST /v2/venues/{venue}/query", s.handleQueryV2)
	s.mux.HandleFunc("PUT /v2/venues/{venue}/conditions", s.handleConditions)
	s.mux.HandleFunc("POST /v2/venues/{venue}/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	return s
}

// Handler exposes the route table (tests mount it on httptest servers).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the registry the server serves from.
func (s *Server) Registry() *Registry { return s.reg }

// Config returns the effective configuration (defaults applied).
func (s *Server) Config() Config { return s.cfg }

// Serve accepts connections until Shutdown. It always returns a non-nil
// error; after a clean Shutdown that error is http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error { return s.httpSrv.Serve(l) }

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains the server: /healthz flips to 503 so load balancers stop
// routing here, no new connections are accepted, and in-flight queries run
// to completion (or until ctx expires, whichever first — an expired drain
// closes the remaining connections; per-query deadlines bound how long that
// can take). Safe to call without a prior Serve.
func (s *Server) Shutdown(ctx context.Context) error {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	return s.httpSrv.Shutdown(ctx)
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "venues": s.reg.Len()})
}

func (s *Server) handleVenues(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"venues": s.reg.Status()})
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.met.vars(s.reg, s.bus))
}

// admit takes an admission slot or sheds the request. On true the caller
// must release the slot (<-s.sem) when done. Shedding happens before any
// work — no body read, no engine load.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		s.met.shed.Add(1)
		sec := int(s.cfg.RetryAfter.Seconds() + 0.5)
		if sec < 1 {
			sec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		body := wireError(codeOverloaded, "server at max in-flight queries (%d); retry after %ds", s.cfg.MaxInFlight, sec)
		body.Error.RetryAfterSeconds = sec
		s.writeJSON(w, http.StatusTooManyRequests, body)
		return false
	}
}

// acquireVenue maps registry acquisition onto the error taxonomy.
func (s *Server) acquireVenue(name string) (*Handle, *apiError) {
	h, err := s.reg.Acquire(name)
	if errors.Is(err, ErrUnknownVenue) {
		return nil, errf(codeUnknownVenue, "%v", err)
	}
	if err != nil {
		return nil, errf(codeVenueUnavailable, "%v", err)
	}
	return h, nil
}

// queryDeadline resolves the effective per-request timeout: a request's
// timeout_ms can tighten the configured maximum, never extend it.
func (s *Server) queryDeadline(reqMillis int) time.Duration {
	timeout := s.cfg.QueryTimeout
	if t := time.Duration(reqMillis) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	return timeout
}

// runEnvelope executes one decoded query against an acquired venue handle —
// the one query core of /v1, /v2 and subscriber re-runs. A request without a
// conditions overlay runs under published, the venue's published conditions
// as the caller read them from the bus. It returns the response document and
// its routes alone (what a subscriber compares across revisions), or
// clientGone when the client disconnected mid-query (nothing can be
// written).
func (s *Server) runEnvelope(parent context.Context, h *Handle, env *queryEnvelope, published *model.Conditions) (res, routes any, _ *apiError) {
	eng := h.Engine()
	var (
		timeoutMillis int
		run           func(context.Context) error
	)
	if q := env.Route; q != nil {
		variant := search.Variant(q.Variant)
		if q.Variant == "" {
			variant = search.VariantToE
		}
		opt, err := search.OptionsFor(variant)
		if err != nil {
			return nil, nil, errf(codeUnknownVariant, "%v", err)
		}
		if s.cfg.MaxExpansions > 0 {
			opt.MaxExpansions = s.cfg.MaxExpansions
		}
		req, err := q.BuildRequest(eng)
		if err != nil {
			return nil, nil, errf(codeInvalidRequest, "%v", err)
		}
		if req.Conditions == nil {
			req.Conditions = published
		}
		timeoutMillis = q.TimeoutMillis
		run = func(ctx context.Context) error {
			r, err := eng.SearchContext(ctx, req, opt)
			if err == nil {
				resp := BuildResponse(h.Venue(), variant, req, r)
				res, routes = resp, resp.Routes
			}
			return err
		}
	} else {
		q := env.Sequence
		req, err := q.BuildSequenceRequest(eng)
		if err != nil {
			return nil, nil, errf(codeInvalidRequest, "%v", err)
		}
		if req.Conditions == nil {
			req.Conditions = published
		}
		timeoutMillis = q.TimeoutMillis
		run = func(ctx context.Context) error {
			r, err := eng.SearchSequenceContext(ctx, req)
			if err == nil {
				resp := BuildSequenceResponse(h.Venue(), req, r)
				res, routes = resp, resp.Routes
			}
			return err
		}
	}

	timeout := s.queryDeadline(timeoutMillis)
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()
	switch err := run(ctx); {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		return nil, nil, errf(codeDeadlineExceeded, "query exceeded its %v deadline", timeout)
	case errors.Is(err, context.Canceled):
		// The client went away; the query aborted at its next poll and its
		// scratch went back to the pool.
		return nil, nil, clientGone
	default:
		// The engine validates the request (points inside the space,
		// parameter ranges, conditions against the venue's doors) before
		// running; any non-context error is a request problem.
		return nil, nil, errf(codeInvalidRequest, "%v", err)
	}
	h.CountQuery()
	return res, routes, nil
}

// handleQuery is POST /v1/venues/{venue}/query: the body is a bare
// QueryRequest (this shape is frozen; new query kinds live under /v2).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, decodeQuery)
}

// handleQueryV2 is POST /v2/venues/{venue}/query: the body is a versioned
// envelope discriminated on "type". A route envelope answers with the exact
// QueryResponse document /v1 serves (the v1-vs-v2 oracle test pins this); a
// sequence envelope answers with a SequenceResponse.
func (s *Server) handleQueryV2(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, decodeEnvelope)
}

// serveQuery is the one serving path of both query endpoints, which differ
// only in their body decoder: admit (shedding before any body is read),
// decode, acquire the venue, run the query under the venue's published
// conditions, and respond.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, decode func(io.Reader) (*queryEnvelope, *apiError)) {
	if !s.admit(w) {
		return
	}
	defer func() { <-s.sem }()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	t0 := time.Now()
	defer func() { s.met.observe(time.Since(t0)) }()

	env, apiErr := decode(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if apiErr != nil {
		s.writeAPIError(w, apiErr)
		return
	}

	h, apiErr := s.acquireVenue(r.PathValue("venue"))
	if apiErr != nil {
		s.writeAPIError(w, apiErr)
		return
	}
	defer h.Release()

	_, published := s.bus.state(h.Venue())
	res, _, apiErr := s.runEnvelope(r.Context(), h, env, published)
	switch {
	case apiErr == clientGone:
		s.met.disconnects.Add(1)
		return
	case apiErr != nil:
		s.writeAPIError(w, apiErr)
		return
	}
	s.met.ok.Add(1)
	s.writeJSON(w, http.StatusOK, res)
}

// handleReload hot-swaps a venue's resident engine: the snapshot at the
// requested path (the venue's configured path when the body is empty or
// omits it) is loaded to the side and atomically replaces the old engine —
// in-flight queries drain on the one they acquired, later arrivals see the
// new bake, and the old result cache is invalidated so no stale route
// survives the swap. A failed load leaves the venue serving the old engine
// untouched. Path overrides are confined to Config.SnapshotRoot — this
// endpoint shares the query listener, so it must not be a primitive for
// loading arbitrary files.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var body ReloadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		s.writeError(w, codeMalformedRequest, "decoding request body: %v", err)
		return
	}
	path, err := s.resolveReloadPath(body.Path)
	if err != nil {
		s.writeError(w, codePathForbidden, "%v", err)
		return
	}

	name := r.PathValue("venue")
	t0 := time.Now()
	err = s.reg.Swap(name, path)
	switch {
	case errors.Is(err, ErrUnknownVenue):
		s.writeError(w, codeUnknownVenue, "%v", err)
		return
	case err != nil:
		s.writeError(w, codeReloadFailed, "%v", err)
		return
	}
	s.met.reloads.Add(1)
	s.writeJSON(w, http.StatusOK, ReloadResponse{
		Venue:      name,
		LoadMillis: time.Since(t0).Milliseconds(),
	})
}

// resolveReloadPath maps a ReloadRequest path override onto the configured
// snapshot root. An empty override is always allowed — it means "reload the
// venue's configured path". Anything else must be a clean relative path
// (no absolute paths, no ".." escapes; filepath.IsLocal) and is resolved
// under SnapshotRoot; with no root configured every override is rejected.
func (s *Server) resolveReloadPath(p string) (string, error) {
	if p == "" {
		return "", nil
	}
	if s.cfg.SnapshotRoot == "" {
		return "", errors.New("no snapshot root configured; reload accepts no path override (an empty body reloads the venue's configured snapshot)")
	}
	if !filepath.IsLocal(p) {
		return "", fmt.Errorf("reload path %q must be relative and resolve inside the snapshot root", p)
	}
	return filepath.Join(s.cfg.SnapshotRoot, p), nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure here means the client is gone; the status line has
	// already been written, so there is nothing left to report to them.
	_ = json.NewEncoder(w).Encode(v)
}

// String renders the effective configuration for startup logs.
func (c Config) String() string {
	root := c.SnapshotRoot
	if root == "" {
		root = "(none)"
	}
	return fmt.Sprintf("max_inflight=%d query_timeout=%v retry_after=%v max_body=%dB max_expansions=%d max_subscribers=%d subscribe_max_age=%v snapshot_root=%s",
		c.MaxInFlight, c.QueryTimeout, c.RetryAfter, c.MaxBodyBytes, c.MaxExpansions, c.MaxSubscribers, c.SubscribeMaxAge, root)
}
