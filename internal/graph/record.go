package graph

import "ikrq/internal/model"

// This file is the export half of the graph layer's snapshot seam (see
// internal/snapshot): the precomputed distance structures — the state
// graph, the skeleton closure and the KoE* backends — each export a record
// that the snapshot writer lays out flat, and the FromFlat constructors in
// flat.go restore them without repeating their construction work. The
// state enumeration is cheap, but arc weights, the Floyd–Warshall closure
// and the n×n all-pairs Dijkstra sweep dominate engine build time, which is
// exactly what loading a snapshot skips.

// StateRecord is one (door, entered-partition) state; its position in
// PathFinderRecord.States is its StateID.
type StateRecord struct {
	Door model.DoorID
	Part model.PartitionID
}

// ArcRecord is one weighted arc of the state graph.
type ArcRecord struct {
	To StateID
	W  float64
}

// PathFinderRecord is the serializable form of a PathFinder: the state
// table and the adjacency lists flattened into one arc vector with
// per-state counts.
type PathFinderRecord struct {
	States    []StateRecord
	ArcCounts []int32 // len == len(States); ArcCounts[i] arcs belong to state i
	Arcs      []ArcRecord
}

// Export captures the state graph as a record sharing no memory with the
// finder.
func (pf *PathFinder) Export() *PathFinderRecord {
	rec := &PathFinderRecord{
		States:    make([]StateRecord, len(pf.states)),
		ArcCounts: make([]int32, len(pf.states)),
	}
	total := 0
	for _, as := range pf.adj {
		total += len(as)
	}
	rec.Arcs = make([]ArcRecord, 0, total)
	for i, st := range pf.states {
		rec.States[i] = StateRecord{Door: st.door, Part: st.part}
		rec.ArcCounts[i] = int32(len(pf.adj[i]))
		for _, a := range pf.adj[i] {
			rec.Arcs = append(rec.Arcs, ArcRecord{To: a.to, W: a.w})
		}
	}
	return rec
}

// SkeletonRecord is the serializable form of a Skeleton: the staircase-door
// order and the Floyd–Warshall-closed δs2s matrix, row-major. +Inf entries
// (disconnected skeleton components) are preserved.
type SkeletonRecord struct {
	Doors []model.DoorID
	Dist  []float64 // len(Doors)² row-major
}

// Export captures the skeleton closure as a record. The skeleton already
// stores δs2s flat row-major, exactly the record layout.
func (sk *Skeleton) Export() *SkeletonRecord {
	return &SkeletonRecord{
		Doors: append([]model.DoorID(nil), sk.doors...),
		Dist:  append([]float64(nil), sk.d...),
	}
}

// MatrixRecord is the serializable form of the KoE* all-pairs Matrix: the
// row-major distance and parent-pointer tables (row a holds source a's
// Dijkstra tree). It is by far the largest snapshot section — Θ(states²),
// the same order the paper reports for KoE*'s memory in Fig. 14 — and also
// the most expensive to recompute, so persisting it is what makes snapshot
// loading beat a rebuild by a wide margin.
type MatrixRecord struct {
	N    int32
	Dist []float64 // N² row-major, +Inf for unreachable
	Prev []StateID // N² row-major, NoState for unreachable and the source
}

// Export captures the all-pairs tables as a record.
func (m *Matrix) Export() *MatrixRecord {
	return &MatrixRecord{
		N:    int32(m.n),
		Dist: append([]float64(nil), m.dist...),
		Prev: append([]StateID(nil), m.prev...),
	}
}

// Finder returns the PathFinder the matrix was computed over.
func (m *Matrix) Finder() *PathFinder { return m.pf }

// OracleRecord is the serializable form of the hierarchical Oracle: the hub
// enumeration plus the three exact distance tables. Unlike the matrix it is
// near-linear in states, so persisting it costs little and spares loads the
// 2|H| Dijkstra sweep.
type OracleRecord struct {
	Hubs    []StateID // hub states grouped by floor
	HubOff  []int32   // len floors+1
	ToHub   []float64 // concatenated per-state rows (own-floor hubs)
	FromHub []float64 // same layout as ToHub
	HubDist []float64 // len(Hubs)² row-major
}

// Export captures the oracle tables as a record sharing no memory with the
// oracle.
func (o *Oracle) Export() *OracleRecord {
	return &OracleRecord{
		Hubs:    append([]StateID(nil), o.hubs...),
		HubOff:  append([]int32(nil), o.hubOff...),
		ToHub:   append([]float64(nil), o.toHub...),
		FromHub: append([]float64(nil), o.fromHub...),
		HubDist: append([]float64(nil), o.hubDist...),
	}
}
