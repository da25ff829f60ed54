package search

import (
	"encoding/binary"
	"math"

	"ikrq/internal/geom"
	"ikrq/internal/model"
)

// This file defines the request fingerprints behind the result cache
// (resultcache.go): byte encodings of (Request, Options) and of
// SequenceRequest under which equal keys mean equal results. A fingerprint
// is used directly as the cache map key, so equality is checked on the full
// bytes, never on a hash: two requests share a cache slot exactly when their
// encodings are byte-equal, and hash collisions cannot alias distinct
// queries by construction (DESIGN.md §11). A leading layout version byte —
// 1 for route queries, 2 for sequence queries — keeps the two key spaces
// disjoint inside one per-engine cache.
//
// Keywords are keyed verbatim, in request order: Route.Sims and
// SequenceRoute.LegSims align with the request's keyword lists, so a stored
// result serves exactly the requests that list their keywords the same way,
// and a hit returns it without a copy. A reordered keyword list misses.
// Duplicate keywords are kept (they contribute to ρ twice).
//
// The Conditions digest is order-invariant, because it is how a set is
// serialized:
//
//   - Conditions door order and duplicates. Closures and delays are keyed
//     as sorted (door, value) sequences; model.Conditions already dedupes
//     repeated Close calls and accumulates repeated Delay calls.
//   - Semantic no-ops in Conditions. A zero penalty is dropped (it cannot
//     change any route cost), and a penalty on a closed door is dropped (no
//     route may traverse the door at all), so e.g. Close(3) and
//     Close(3).Delay(3, 7) fingerprint identically.
//
// Everything else is keyed on exact bit patterns: float parameters (Δ, α,
// τ, coordinates, penalties) by math.Float64bits, so 0.2 and 0.2000001
// never alias, and every Options field that can change routes, stats or
// truncation behavior.

// fingerprintQuery computes the cache key of a validated (request, options)
// pair.
func fingerprintQuery(req *Request, opt Options) string {
	b := make([]byte, 0, 128+16*len(req.QW))
	b = append(b, 1) // layout version: route requests

	var flags byte
	if opt.Algorithm == KoE {
		flags |= 1 << 0
	}
	if opt.DisableDistancePruning {
		flags |= 1 << 1
	}
	if opt.DisableKBound {
		flags |= 1 << 2
	}
	if opt.DisablePrime {
		flags |= 1 << 3
	}
	if opt.Precompute {
		flags |= 1 << 4
	}
	if opt.StrictPaperConnect {
		flags |= 1 << 5
	}
	if opt.DisableBackendBound {
		flags |= 1 << 6
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(int64(opt.MaxExpansions)))
	b = appendF64(b, opt.SoftDeltaSlack)
	b = appendF64(b, opt.PopularityWeight)

	b = appendQueryHeader(b, req.Ps, req.Pt, req.Delta, req.K, req.Alpha, req.Tau)
	b = appendKeywords(b, req.QW)
	b = appendConditions(b, req.Conditions)
	return string(b)
}

// fingerprintSequence computes the cache key of a validated sequence
// request. Leg order is semantic and keyed verbatim, like the keywords
// within each leg.
func fingerprintSequence(req *SequenceRequest) string {
	b := make([]byte, 0, 160)
	b = append(b, 2) // layout version: sequence requests
	b = binary.AppendUvarint(b, uint64(int64(req.Beam)))
	b = appendQueryHeader(b, req.Ps, req.Pt, req.Delta, req.K, req.Alpha, req.Tau)
	b = binary.AppendUvarint(b, uint64(len(req.Legs)))
	for _, leg := range req.Legs {
		b = appendKeywords(b, leg.QW)
	}
	b = appendConditions(b, req.Conditions)
	return string(b)
}

// appendQueryHeader appends the parameters every query kind carries: both
// points, Δ, k, α and τ.
func appendQueryHeader(b []byte, ps, pt geom.Point, delta float64, k int, alpha, tau float64) []byte {
	b = appendF64(b, ps.X)
	b = appendF64(b, ps.Y)
	b = binary.AppendUvarint(b, uint64(int64(ps.Floor)))
	b = appendF64(b, pt.X)
	b = appendF64(b, pt.Y)
	b = binary.AppendUvarint(b, uint64(int64(pt.Floor)))
	b = appendF64(b, delta)
	b = binary.AppendUvarint(b, uint64(int64(k)))
	b = appendF64(b, alpha)
	return appendF64(b, tau)
}

// appendKeywords appends a keyword list in request order, each keyword
// length-prefixed so no two lists share an encoding.
func appendKeywords(b []byte, qw []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(qw)))
	for _, w := range qw {
		b = binary.AppendUvarint(b, uint64(len(w)))
		b = append(b, w...)
	}
	return b
}

// appendConditions appends the order-invariant Conditions digest: sorted
// closed doors, then sorted (door, penalty-bits) pairs with semantic no-ops
// (zero penalties, penalties on closed doors) dropped. A nil overlay and an
// overlay normalizing to empty encode identically.
func appendConditions(b []byte, c *model.Conditions) []byte {
	closed := c.ClosedDoors() // nil-safe, sorted, deduped
	b = binary.AppendUvarint(b, uint64(len(closed)))
	for _, d := range closed {
		b = binary.AppendUvarint(b, uint64(int64(d)))
	}
	delayed := c.DelayedDoors() // nil-safe, sorted
	kept := delayed[:0:0]
	for _, d := range delayed {
		if c.Penalty(d) != 0 && !c.Closed(d) {
			kept = append(kept, d)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(kept)))
	for _, d := range kept {
		b = binary.AppendUvarint(b, uint64(int64(d)))
		b = appendF64(b, c.Penalty(d))
	}
	return b
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
