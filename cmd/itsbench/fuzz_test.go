package main

import (
	"reflect"
	"testing"
)

// FuzzDiffDocs: arbitrary pairs of JSON documents must never panic the
// `itsbench diff` comparator, its output must be deterministic, and a
// document must never drift against itself.
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
		oldDoc, _, err := parseDoc([]byte(oldJSON))
		if err != nil {
			return
		}
		newDoc, _, err := parseDoc([]byte(newJSON))
		if err != nil {
			return
		}
		drifts, _ := diffDocs(oldDoc, newDoc)
		if again, _ := diffDocs(oldDoc, newDoc); !reflect.DeepEqual(drifts, again) {
			t.Fatalf("diffDocs is not deterministic:\n%v\nvs\n%v", drifts, again)
		}
		if self, _ := diffDocs(oldDoc, oldDoc); len(self) != 0 {
			t.Fatalf("document drifts against itself: %v", self)
		}
	})
}
