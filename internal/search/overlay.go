package search

import (
	"ikrq/internal/graph"
	"ikrq/internal/model"
)

// overlay is a query's Conditions loaded into dense door-indexed sets — the
// one place route and sequence queries turn an overlay into door lookups,
// seed adjustments and stage costs. closed and delay are nil when the
// overlay closes, respectively delays, no door, so a bare query pays one
// nil check per lookup. The overlay is immutable for the query's duration,
// so concurrent queries with distinct overlays never share these sets.
//
// closedBuf and delayBuf are the backing arrays the sets are loaded into.
// They survive loads, so an overlay kept on pooled scratch sizes them once;
// they hold no references and need no release.
type overlay struct {
	closed []bool
	delay  []float64

	closedBuf []bool
	delayBuf  []float64
}

// load replaces the overlay's sets with cond (nil or empty: no sets) over a
// venue of numDoors doors. Only the sets cond needs are sized and cleared.
func (o *overlay) load(cond *model.Conditions, numDoors int) {
	o.closed, o.delay = nil, nil
	if cond.NumClosed() > 0 {
		o.closedBuf = resized(o.closedBuf, numDoors)
		cond.ForEachClosed(func(d model.DoorID) { o.closedBuf[d] = true })
		o.closed = o.closedBuf
	}
	if cond.NumDelayed() > 0 {
		o.delayBuf = resized(o.delayBuf, numDoors)
		cond.ForEachDelay(func(d model.DoorID, p float64) { o.delayBuf[d] = p })
		o.delay = o.delayBuf
	}
}

// resized returns buf cleared to length n, reallocating only when its
// capacity is short.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// isClosed reports whether the overlay closes door d.
func (o *overlay) isClosed(d model.DoorID) bool { return o.closed != nil && o.closed[d] }

// penalty returns the overlay's additive traversal penalty for door d.
func (o *overlay) penalty(d model.DoorID) float64 {
	if o.delay == nil {
		return 0
	}
	return o.delay[d]
}

// seeds applies the overlay to a seed set in place: a seed that passes its
// door as a new hop of the walk (EmitHop) is dropped when the door is closed
// and otherwise pays the door's penalty in its initial cost. Seeds that
// continue from a door already passed (EmitHop false) are unchanged: that
// door's penalty was paid when it was passed, and no walk ever stands at a
// closed door.
func (o *overlay) seeds(pf *graph.PathFinder, seeds []graph.Seed) []graph.Seed {
	if o.closed == nil && o.delay == nil {
		return seeds
	}
	out := seeds[:0]
	for _, sd := range seeds {
		if sd.State != graph.NoState && sd.EmitHop {
			d, _ := pf.State(sd.State)
			if o.isClosed(d) {
				continue
			}
			sd.Cost += o.penalty(d)
		}
		out = append(out, sd)
	}
	return out
}

// costs returns the shortest-path cost model of the overlay on top of block,
// an extra door filter (nil: none): a door is blocked when the overlay closes
// it or block rejects it, and every pass pays the door's penalty. Closures
// fold into block's closure rather than wrapping it, so a relaxation pays
// one indirect call for the whole filter.
func (o *overlay) costs(block graph.Forbidden) graph.Costs {
	c := graph.Costs{Block: block}
	if closed := o.closed; closed != nil {
		if block == nil {
			c.Block = func(d model.DoorID) bool { return closed[d] }
		} else {
			c.Block = func(d model.DoorID) bool { return closed[d] || block(d) }
		}
	}
	if delay := o.delay; delay != nil {
		c.Delay = func(d model.DoorID) float64 { return delay[d] }
	}
	return c
}
