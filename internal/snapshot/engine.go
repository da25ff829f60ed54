package snapshot

import (
	"io"

	"ikrq/internal/graph"
	"ikrq/internal/search"
	"ikrq/internal/snapshot/mapping"
)

// SaveEngine writes e's immutable index layer to w in the current (flat)
// container format, which OpenEngine can later serve zero-copy over an
// mmap. Each section is encoded straight from the layer's tables. The KoE*
// backend section (the hierarchical oracle) is included exactly when the
// engine has built it — call Engine.Precompute first to bake a snapshot
// that spares every future load the precomputation.
func SaveEngine(w io.Writer, e *search.Engine) error {
	sections := []section{
		{tagSpace, encodeSpace(e.Space().Export())},
		{tagDerived, encodeDerived(e.Space().ExportDerived())},
		{tagKeywords, encodeKeywords(e.Keywords().Tables())},
		{tagPathFinder, encodePathFinder(e.PathFinder().Tables())},
		{tagSkeleton, encodeSkeleton(e.Skeleton().Tables())},
	}
	if o, ok := e.DistanceSourceIfReady().(*graph.Oracle); ok {
		sections = append(sections, section{tagOracle, encodeOracle(o.Tables())})
	}
	return writeFlat(w, sections)
}

// LoadEngine reads a snapshot from r into a heap image and assembles a
// ready-to-serve engine from it through the untrusted reader: every
// section CRC is verified, every table is value-scanned, and the space
// record is replayed through the model builder (revalidating the
// topology), while the pathfinder, skeleton and KoE* backend adopt their
// persisted tables instead of recomputing them. It is the bit-rot check
// for a bake. A loaded engine returns results identical to one freshly
// built over the same space and keyword index.
func LoadEngine(r io.Reader) (*search.Engine, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return EngineFromMapping(mapping.FromBytes(b))
}
