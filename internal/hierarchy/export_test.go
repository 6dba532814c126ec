package hierarchy

import (
	"midas/internal/fact"
	"midas/internal/idset"
)

// NewNodeForTest returns a bare node with the given interned-set ID, for
// link-structure tests that bypass a full build.
func NewNodeForTest(id int32) *Node { return &Node{set: idset.SetID(id), Valid: true} }

// LinkForTest links c under p through the builder's internal helper,
// keeping the child-ID mirror consistent.
func LinkForTest(p, c *Node) {
	if !p.HasChild(c) {
		addChild(p, c)
		c.Parents = append(c.Parents, p)
	}
}

// InitialCombos drives the builder's initial-slice odometer over props
// with the given cap, copying out each combination it yields.
func InitialCombos(props []fact.Property, limit int) (combos [][]fact.Property, capped bool) {
	var o comboOdometer
	capped = o.reset(props, limit)
	for c := o.next(); c != nil; c = o.next() {
		combos = append(combos, append([]fact.Property(nil), c...))
	}
	return combos, capped
}
