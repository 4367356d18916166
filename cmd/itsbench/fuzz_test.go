package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"itsim/internal/metrics"
)

// FuzzDiffDocs: arbitrary pairs of JSON documents must never panic the
// `itsbench diff` comparator, its output must be deterministic, and — for
// documents without duplicate run keys, which real itsbench output never
// has — a document must never drift against itself.
func FuzzDiffDocs(f *testing.F) {
	seed := `{"figures":{"fig6":{"4":{"its":1.5,"sync":2}}},` +
		`"runs":[{"policy":"its","batch":"4","makespan_ns":100,"avg_finish_ns":40}]}`
	f.Add(seed, seed)
	f.Add(seed, `{}`)
	f.Add(`{}`, seed)
	f.Add(`{"figures":{"fig7":{"8":{"its":3}}}}`,
		`{"figures":{"fig7":{"8":{"its":3.0001}}}}`)
	f.Add(`{"runs":[{"policy":"its","batch":"4"},{"policy":"sync","batch":"4"}]}`,
		`{"runs":[{"policy":"its","batch":"4"}]}`)
	f.Fuzz(func(t *testing.T, oldJSON, newJSON string) {
		var oldDoc, newDoc jsonDoc
		if json.Unmarshal([]byte(oldJSON), &oldDoc) != nil {
			return
		}
		if json.Unmarshal([]byte(newJSON), &newDoc) != nil {
			return
		}
		drifts := diffDocs(&oldDoc, &newDoc)
		if again := diffDocs(&oldDoc, &newDoc); !reflect.DeepEqual(drifts, again) {
			t.Fatalf("diffDocs is not deterministic:\n%v\nvs\n%v", drifts, again)
		}
		// Self-comparison is only well-defined without duplicate run keys
		// (the comparator indexes runs by policy/batch).
		if hasDupRunKeys(oldDoc.Runs) {
			return
		}
		if self := diffDocs(&oldDoc, &oldDoc); len(self) != 0 {
			t.Fatalf("document drifts against itself: %v", self)
		}
	})
}

func hasDupRunKeys(runs []metrics.Summary) bool {
	type runKey struct{ policy, batch string }
	seen := make(map[runKey]bool, len(runs))
	for _, r := range runs {
		k := runKey{r.Policy, r.Batch}
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}
