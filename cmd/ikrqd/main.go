// Command ikrqd is the IKRQ serving daemon: it keeps one or more baked
// engine snapshots resident in a venue registry and answers routing
// queries over HTTP until told to drain.
//
// Usage:
//
//	ikrqgen -real -snapshot mall.ikrq                # bake once …
//	ikrqd -listen :8080 -venue mall=mall.ikrq        # … serve everywhere
//	ikrqd -venue a=a.ikrq -venue b=b.ikrq -max-resident 1
//
// Endpoints:
//
//	GET  /healthz                      liveness; 503 once draining
//	GET  /v1/venues                    per-venue load/refcount/query stats
//	POST /v1/venues/{venue}/query      one IKRQ query (JSON; see README)
//	POST /v1/venues/{venue}/reload     hot-swap the venue's snapshot in place
//	POST /v2/venues/{venue}/query      versioned envelope: route or sequence query
//	PUT  /v2/venues/{venue}/conditions publish a venue-wide conditions revision
//	POST /v2/venues/{venue}/subscribe  SSE stream re-routing one query on publish
//	GET  /debug/vars                   QPS, in-flight, p50/p99, shed/push counts
//
// Venues load lazily on first query (or eagerly with -warm); -max-resident
// caps how many engines stay in memory at once, evicting the
// least-recently-used idle venue. v3 snapshots are served zero-copy over an
// mmap where the platform supports it — /v1/venues reports each venue's
// heap_bytes/mapped_bytes split — and a re-baked snapshot can be swapped in
// under live traffic with the reload endpoint (in-flight queries drain on
// the engine they started on; the result cache is invalidated so no stale
// route survives the swap). Reload path overrides must be relative paths
// inside -snapshot-root; without that flag the endpoint only re-reads each
// venue's configured path — it shares the query listener and must not load
// arbitrary files. Queries run under -timeout deadlines and
// a bounded in-flight semaphore (-max-inflight) that sheds excess load
// with 429 + Retry-After. SIGINT/SIGTERM starts a graceful drain: the
// listener closes, /healthz flips to 503, and in-flight queries finish
// within the -drain grace period.
//
// The v2 surface wraps route and sequence queries in one "type"-
// discriminated envelope and adds the conditions bus: PUT a conditions
// overlay (closed doors, per-door delays) and every subscribed client whose
// answer changed is pushed a re-route over its SSE stream. -max-subscribers
// bounds the live streams, -subscribe-max their lifetime.
//
// Repeated queries are answered from a per-venue result cache keyed by a
// fingerprint of the full request — geometry, keywords in request order,
// variant and the conditions overlay — so a cache hit is byte-identical to
// the uncached answer. -cache-entries and -cache-bytes bound it; -cache-off
// disables it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ikrq/internal/cli"
	"ikrq/internal/search"
	"ikrq/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	var venues venueFlags
	var (
		listen      = flag.String("listen", ":8080", "HTTP listen address")
		warm        = flag.Bool("warm", false, "load every venue (and its KoE* backend) at startup instead of on first query")
		maxResident = flag.Int("max-resident", 0, "max engines resident at once, LRU-evicted (0: unlimited)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently executing queries before shedding with 429 (0: 4×GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-query deadline")
		drain       = flag.Duration("drain", 15*time.Second, "grace period for in-flight queries on SIGTERM")
		maxExpand   = flag.Int("max-expansions", 300000, "per-query stamp-expansion work cap (-1: uncapped)")
		snapRoot    = flag.String("snapshot-root", "", "directory reload path overrides may load snapshots from (empty: reload only re-reads each venue's configured path)")
		maxSubs     = flag.Int("max-subscribers", 0, "max live conditions-bus SSE streams across all venues (0: 64)")
		subMax      = flag.Duration("subscribe-max", 0, "max lifetime of one subscribe stream before the client must reconnect (0: 5m)")

		cacheEntries = flag.Int("cache-entries", search.DefaultCacheEntries, "per-venue result-cache capacity in entries")
		cacheBytes   = flag.Int64("cache-bytes", search.DefaultCacheBytes, "per-venue result-cache budget in bytes (-1: unbounded)")
		cacheOff     = flag.Bool("cache-off", false, "disable the result cache; every query runs the searcher")
	)
	flag.Var(&venues, "venue", "venue to serve as name=path/to.snapshot (repeatable)")
	flag.Parse()

	if len(venues) == 0 {
		return cli.Fail(os.Stderr, "ikrqd", cli.Usagef("at least one -venue name=path is required"))
	}
	reg := server.NewRegistry(*maxResident)
	if !*cacheOff {
		reg.EnableResultCache(search.CacheOptions{MaxEntries: *cacheEntries, MaxBytes: *cacheBytes})
	}
	for _, v := range venues {
		v.Warm = *warm
		if err := reg.Add(v); err != nil {
			return cli.Fail(os.Stderr, "ikrqd", cli.Usagef("%v", err))
		}
	}
	if *warm {
		t0 := time.Now()
		if err := reg.WarmAll(); err != nil {
			return cli.Fail(os.Stderr, "ikrqd", err)
		}
		log.Printf("ikrqd: warmed %d venues in %v", reg.Len(), time.Since(t0).Round(time.Millisecond))
	}

	cfg := server.Config{
		MaxInFlight:     *maxInflight,
		QueryTimeout:    *timeout,
		MaxExpansions:   *maxExpand,
		SnapshotRoot:    *snapRoot,
		MaxSubscribers:  *maxSubs,
		SubscribeMaxAge: *subMax,
	}
	srv := server.New(reg, cfg)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return cli.Fail(os.Stderr, "ikrqd", err)
	}
	log.Printf("ikrqd: serving %d venues on %s (%v)", reg.Len(), l.Addr(), srv.Config())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	select {
	case err := <-errc:
		// The listener failed before any signal; Serve never returns nil.
		return cli.Fail(os.Stderr, "ikrqd", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain
	log.Printf("ikrqd: draining (grace %v)", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return cli.Fail(os.Stderr, "ikrqd", fmt.Errorf("drain expired with queries still running: %w", err))
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return cli.Fail(os.Stderr, "ikrqd", err)
	}
	log.Printf("ikrqd: drained cleanly")
	return cli.ExitOK
}

// venueFlags collects repeated -venue name=path flags.
type venueFlags []server.VenueConfig

func (v *venueFlags) String() string {
	parts := make([]string, len(*v))
	for i, c := range *v {
		parts[i] = c.Name + "=" + c.Path
	}
	return strings.Join(parts, ",")
}

func (v *venueFlags) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path/to.snapshot, got %q", s)
	}
	*v = append(*v, server.VenueConfig{Name: name, Path: path})
	return nil
}
