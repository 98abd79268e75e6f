// fixturepath: femtocr/internal/aliasfixture

// Ownership-contract violations the analyzer must flag: an exported *Into
// function whose reference-carrying parameters have no annotation, and
// borrowed parameters that outlive the call — returned, stashed in a
// global, stored into a receiver field, or handed to a retaining callee.
package fixture

import "sync"

var stash []float64

var pool = sync.Pool{New: func() any { return new([]float64) }}

// CopyInto has no ownership annotations at all.
func CopyInto(dst, src []float64) { // want "carries references but has no ownership annotation"
	copy(dst, src)
}

// LeakInto returns the buffer it only borrowed.
//
//femtovet:borrows dst
func LeakInto(dst []float64) []float64 {
	return dst // want "borrowed parameter .dst. flows into a return value"
}

// StashInto parks the borrowed buffer in package state.
//
//femtovet:borrows dst
func StashInto(dst []float64) {
	stash = dst // want "borrowed parameter .dst. stored into package-level state"
}

type keeper struct{ buf []float64 }

// KeepInto stores the borrowed buffer into its receiver.
//
//femtovet:borrows dst
func (k *keeper) KeepInto(dst []float64) {
	k.buf = dst // want "borrowed parameter .dst. stored into a receiver field"
}

// RetainInto hands the borrowed buffer to a pool, which recycles it.
//
//femtovet:borrows dst
func RetainInto(dst *[]float64) {
	pool.Put(dst) // want "borrowed parameter .dst. passed to Put, which retains its argument"
}

type node struct{ next *node }

type roster struct{ nodes []*node }

// GatherInto copies the borrowed pointers into its receiver: the slice is
// fresh, but its elements still point at the caller's nodes.
//
//femtovet:borrows src
func (r *roster) GatherInto(src []*node) {
	r.nodes = append([]*node(nil), src...) // want "borrowed parameter .src. stored into a receiver field"
}
