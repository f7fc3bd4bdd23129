package channel

import "seqtx/internal/slab"

// Store carves deep copies of halves from chunks it owns: a model
// checker files every new half it meets (sim.System), and a copy costs a
// share of a chunk, not two allocations. A copy keeps its chunk alive
// while it is reachable, so a Store suits halves that live as long as
// it does. Like a Slab, the zero Store is ready to use.
type Store struct {
	dels    slab.Slab[Del]
	entries slab.Slab[copies]
}

// Clone returns a deep copy of h, as h.Clone does. A *Del (del and
// reorder, the kinds the benchmarked explorations file) is carved from
// the store's chunks by its cloneIn; any other half is copied by its own
// Clone.
func (s *Store) Clone(h Half) Half {
	if d, ok := h.(*Del); ok {
		return d.cloneIn(s)
	}
	return h.Clone()
}
