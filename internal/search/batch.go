package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// BatchOptions configures the concurrent fan-out of Engine.SearchBatch.
type BatchOptions struct {
	// Workers is the number of goroutines executing queries; values < 1
	// select runtime.GOMAXPROCS(0). The worker count is capped at the batch
	// size.
	Workers int
}

// SearchBatch runs every request under the same options, fanning the batch
// over a pool of workers that share the engine's immutable index layer —
// including the lazily built KoE* backend, which is forced once before the
// fan-out so workers never race to build it — and draw per-query scratch
// from the engine's scratch pool.
//
// Results are positionally aligned with reqs and identical (scores, door
// sequences, KP sequences, sims) to a serial loop of Engine.Search calls:
// queries share no mutable state, so concurrency cannot change any result.
// A request that fails validation leaves a nil entry in its slot; the
// returned error joins the per-request failures in index order. An invalid
// option combination fails the whole batch before any query runs.
func (e *Engine) SearchBatch(reqs []Request, opt Options, bo BatchOptions) ([]*Result, error) {
	return e.SearchBatchContext(context.Background(), reqs, opt, bo)
}

// SearchBatchContext is SearchBatch under a context. Cancellation
// propagates into every in-flight query (each aborts between expansion
// batches, see Engine.SearchContext) and fails the not-yet-started rest
// of the batch immediately, so a cancelled batch drains within a few
// expansion batches instead of finishing the fan-out. Queries cut off by
// the context leave nil results and contribute ctx.Err() entries to the
// joined error.
func (e *Engine) SearchBatchContext(ctx context.Context, reqs []Request, opt Options, bo BatchOptions) ([]*Result, error) {
	if err := validateOptions(opt); err != nil {
		return nil, err
	}
	results := make([]*Result, len(reqs))
	if len(reqs) == 0 {
		return results, nil
	}
	if opt.Precompute {
		// Build the distance backend once, outside the fan-out — but not
		// for a batch that will fail validation wholesale; like the serial
		// loop, an all-invalid batch must fail fast without paying the
		// precomputation.
		for i := range reqs {
			if e.Validate(reqs[i]) == nil {
				e.Precompute()
				break
			}
		}
	}
	workers := bo.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}

	errs := make([]error, len(reqs))
	if workers == 1 {
		for i := range reqs {
			results[i], errs[i] = e.SearchContext(ctx, reqs[i], opt)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = e.SearchContext(ctx, reqs[i], opt)
				}
			}()
		}
		for i := range reqs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	var bad []error
	for i, err := range errs {
		if err != nil {
			bad = append(bad, fmt.Errorf("request %d: %w", i, err))
		}
	}
	return results, errors.Join(bad...)
}
