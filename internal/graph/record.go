package graph

import "ikrq/internal/model"

// This file is the write half of the graph layer's snapshot seam (see
// internal/snapshot; flat.go is the read half). Each precomputed distance
// structure — the state graph, the skeleton closure and the KoE* oracle —
// has one flat form, its tables: Tables returns them, the snapshot writer
// encodes them, the reader decodes the same tables, and the FromFlat
// constructors take them back without repeating the construction work.
// The state enumeration is cheap, but arc weights, the Floyd–Warshall
// closure and the oracle's hub sweep dominate engine build time, which is
// exactly what loading a snapshot skips.

// PathFinderTables is the flat form of a PathFinder: the state table and
// the adjacency lists as columns.
type PathFinderTables struct {
	// States holds each state's (door, partition) pair interleaved, in
	// StateID order, which is strictly increasing (door, partition).
	States []int32
	// ArcCounts[i] is the number of arcs leaving state i. ArcTo and ArcW
	// list the arcs' targets and weights grouped by source state.
	ArcCounts []int32
	ArcTo     []int32
	ArcW      []float64
}

// Tables lays the state graph out as columns built from its per-state
// adjacency. They share no memory with the finder.
func (pf *PathFinder) Tables() PathFinderTables {
	total := 0
	for _, as := range pf.adj {
		total += len(as)
	}
	t := PathFinderTables{
		States:    make([]int32, 0, 2*len(pf.states)),
		ArcCounts: make([]int32, len(pf.states)),
		ArcTo:     make([]int32, 0, total),
		ArcW:      make([]float64, 0, total),
	}
	for i, st := range pf.states {
		t.States = append(t.States, int32(st.door), int32(st.part))
		t.ArcCounts[i] = int32(len(pf.adj[i]))
		for _, a := range pf.adj[i] {
			t.ArcTo = append(t.ArcTo, int32(a.to))
			t.ArcW = append(t.ArcW, a.w)
		}
	}
	return t
}

// SkeletonTables is the flat form of a Skeleton: the staircase doors in
// the space's floor-major enumeration and the Floyd–Warshall-closed δs2s
// matrix over them, row-major. +Inf entries (disconnected skeleton
// components) are kept.
type SkeletonTables struct {
	Doors []model.DoorID
	Dist  []float64 // len(Doors)² row-major
}

// Tables returns the tables the skeleton holds. They are read-only: they
// may alias an mmap'd snapshot, and the skeleton keeps reading them.
func (sk *Skeleton) Tables() SkeletonTables {
	return SkeletonTables{Doors: sk.doors, Dist: sk.d}
}

// OracleTables is the flat form of the hierarchical Oracle: the hub
// enumeration plus the three exact distance tables. It is near-linear in
// states, so persisting it costs little and spares loads the 2|H| Dijkstra
// sweep.
type OracleTables struct {
	Hubs    []StateID // hub states grouped by floor
	HubOff  []int32   // len floors+1
	ToHub   []float64 // concatenated per-state rows (own-floor hubs)
	FromHub []float64 // same layout as ToHub
	HubDist []float64 // len(Hubs)² row-major
}

// Tables returns the tables the oracle holds. They are read-only: they may
// alias an mmap'd snapshot, and the oracle keeps reading them.
func (o *Oracle) Tables() OracleTables {
	return OracleTables{Hubs: o.hubs, HubOff: o.hubOff, ToHub: o.toHub, FromHub: o.fromHub, HubDist: o.hubDist}
}
