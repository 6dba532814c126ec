package core

import (
	"context"

	"midas/internal/fact"
	"midas/internal/hierarchy"
)

// DiscoverSeededUnbounded is DiscoverSeeded with the source-level
// profit bound off: it always builds and traverses the hierarchy.
func DiscoverSeededUnbounded(table *fact.Table, seeds []hierarchy.Seed, opts Options) *Result {
	return discover(context.Background(), table, seeds, opts, false)
}
