// Package order is a helper the simulator imports (chaos → wrap → order),
// so it is in the deterministic set although nothing lists it: its map
// range is reported here, not where a caller consumes the result.
package order

import "sort"

// Keys returns m's keys in Go's per-run randomized map order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want `range over map map\[string\]int in deterministic package itsim/internal/lib/order`
		out = append(out, k)
	}
	return out
}

// SortedKeys sorts Keys' result. The range inside Keys is still reported:
// the ban sees sources, not what callers do with them.
func SortedKeys(m map[string]int) []string {
	out := Keys(m)
	sort.Strings(out)
	return out
}
