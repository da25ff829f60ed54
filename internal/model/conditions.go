package model

import (
	"fmt"
	"math"
)

// Conditions is a query-time overlay describing the live state of a venue:
// doors that are temporarily closed (after-hours shops, corridors blocked
// for maintenance) and doors that carry an additive traversal penalty
// expressed in walking meters (queueing at a security gate, congestion).
//
// Conditions apply against the unchanged immutable index layer — nothing is
// rebuilt. The key invariant the whole distance stack is designed around:
// an overlay only REMOVES edges (closures) or INCREASES costs (penalties),
// so every statically precomputed lower bound — the skeleton distance |·|L
// behind Pruning Rules 1–3 and the KoE* distance oracle — remains an
// admissible lower bound of the overlaid distance. Search under an overlay
// therefore stays exact without touching the index (see DESIGN.md §7).
//
// A Conditions value is built once before a query and is only read during
// it; distinct queries may use distinct overlays against one shared engine
// concurrently. The zero value and nil both mean "no conditions".
type Conditions struct {
	closed map[DoorID]struct{}
	delays map[DoorID]float64
}

// NewConditions returns an empty overlay.
func NewConditions() *Conditions { return &Conditions{} }

// Close marks doors as closed: no route may traverse them. It returns the
// receiver for chaining.
func (c *Conditions) Close(doors ...DoorID) *Conditions {
	if c.closed == nil {
		c.closed = make(map[DoorID]struct{}, len(doors))
	}
	for _, d := range doors {
		c.closed[d] = struct{}{}
	}
	return c
}

// Delay adds an additive traversal penalty (in walking meters) to a door;
// every pass through the door costs the penalty on top of the geometric
// distance. Repeated calls on the same door accumulate. It returns the
// receiver for chaining.
func (c *Conditions) Delay(d DoorID, penalty float64) *Conditions {
	if c.delays == nil {
		c.delays = make(map[DoorID]float64)
	}
	c.delays[d] += penalty
	return c
}

// Closed reports whether the overlay closes door d. Nil-safe.
func (c *Conditions) Closed(d DoorID) bool {
	if c == nil {
		return false
	}
	_, ok := c.closed[d]
	return ok
}

// Penalty returns the additive traversal penalty of door d (0 when none).
// Nil-safe.
func (c *Conditions) Penalty(d DoorID) float64 {
	if c == nil {
		return 0
	}
	return c.delays[d]
}

// Empty reports whether the overlay constrains nothing. Nil-safe.
func (c *Conditions) Empty() bool {
	return c == nil || (len(c.closed) == 0 && len(c.delays) == 0)
}

// HasDelays reports whether any door carries a penalty. Nil-safe. Static
// distances stay exact under a closure-only overlay for every path that
// avoids the closed doors, but delays make any path through a delayed door
// longer than its static length (see graph.Costs.AllowsStatic).
func (c *Conditions) HasDelays() bool { return c != nil && len(c.delays) > 0 }

// NumClosed returns the number of closed doors. Nil-safe.
func (c *Conditions) NumClosed() int {
	if c == nil {
		return 0
	}
	return len(c.closed)
}

// ClosedDoors returns the closed doors in ascending ID order. Nil-safe.
func (c *Conditions) ClosedDoors() []DoorID {
	if c == nil || len(c.closed) == 0 {
		return nil
	}
	out := make([]DoorID, 0, len(c.closed))
	for d := range c.closed {
		out = append(out, d)
	}
	sortDoorIDs(out)
	return out
}

// ForEachClosed calls fn for every closed door in unspecified order,
// without allocating. Nil-safe. Hot paths (per-query dense-set fills) use
// this; ClosedDoors is for callers that need a stable order.
func (c *Conditions) ForEachClosed(fn func(DoorID)) {
	if c == nil {
		return
	}
	for d := range c.closed {
		fn(d)
	}
}

// ForEachDelay calls fn for every penalized door in unspecified order,
// without allocating. Nil-safe.
func (c *Conditions) ForEachDelay(fn func(DoorID, float64)) {
	if c == nil {
		return
	}
	for d, p := range c.delays {
		fn(d, p)
	}
}

// NumDelayed returns the number of penalized doors. Nil-safe.
func (c *Conditions) NumDelayed() int {
	if c == nil {
		return 0
	}
	return len(c.delays)
}

// DelayedDoors returns the penalized doors in ascending ID order. Nil-safe.
func (c *Conditions) DelayedDoors() []DoorID {
	if c == nil || len(c.delays) == 0 {
		return nil
	}
	out := make([]DoorID, 0, len(c.delays))
	for d := range c.delays {
		out = append(out, d)
	}
	sortDoorIDs(out)
	return out
}

// Validate reports the first problem with the overlay against a space with
// numDoors doors: a door ID out of range, or a penalty that is negative,
// NaN or infinite. Nil-safe; a nil or empty overlay is always valid.
func (c *Conditions) Validate(numDoors int) error {
	if c == nil {
		return nil
	}
	for _, d := range c.ClosedDoors() {
		if int(d) < 0 || int(d) >= numDoors {
			return fmt.Errorf("model: conditions close door %d, space has doors 0..%d", d, numDoors-1)
		}
	}
	for _, d := range c.DelayedDoors() {
		if int(d) < 0 || int(d) >= numDoors {
			return fmt.Errorf("model: conditions delay door %d, space has doors 0..%d", d, numDoors-1)
		}
		p := c.delays[d]
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("model: conditions delay on door %d is %v; penalties must be finite and ≥ 0 (close the door instead of an infinite delay)", d, p)
		}
	}
	return nil
}

// String renders the overlay for diagnostics.
func (c *Conditions) String() string {
	if c.Empty() {
		return "conditions{}"
	}
	s := "conditions{"
	if len(c.closed) > 0 {
		s += "closed: " + fmt.Sprint(c.ClosedDoors())
	}
	if len(c.delays) > 0 {
		if len(c.closed) > 0 {
			s += ", "
		}
		s += "delays: "
		for i, d := range c.DelayedDoors() {
			if i > 0 {
				s += " "
			}
			s += fmt.Sprintf("d%d:+%.1fm", d, c.delays[d])
		}
	}
	return s + "}"
}
