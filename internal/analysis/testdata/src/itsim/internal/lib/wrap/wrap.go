// Package wrap is the second hop of the helper chain: it forwards
// order.Keys across another package boundary, so the chaos consumer is two
// calls away from the map range. It contains no source of its own.
package wrap

import "itsim/internal/lib/order"

// FirstKey returns one of m's keys; which one depends on Go's map hashing.
func FirstKey(m map[string]int) string {
	ks := order.Keys(m)
	if len(ks) == 0 {
		return ""
	}
	return ks[0]
}

// FirstSorted returns m's smallest key.
func FirstSorted(m map[string]int) string {
	ks := order.SortedKeys(m)
	if len(ks) == 0 {
		return ""
	}
	return ks[0]
}
