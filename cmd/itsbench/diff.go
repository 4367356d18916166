package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
)

// diffMain is the `itsbench diff` subcommand: it compares two -format json
// documents value by value and reports every value that changed — the
// ROADMAP's regression check, at zero tolerance. Exit status: 0 when the
// documents agree, 1 on drift, 2 on usage or read errors, 3 when the
// documents carry different schema versions (a layout change, not drift; an
// unversioned document counts as version 0).
//
//	itsbench -exp all -format json > before.json
//	# ...change the simulator...
//	itsbench -exp all -format json > after.json
//	itsbench diff before.json after.json
func diffMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.Usage = func() { fmt.Fprintln(os.Stderr, "usage: itsbench diff old.json new.json") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldDoc, oldVersion, err := loadDoc(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "itsbench diff:", err)
		return 2
	}
	newDoc, newVersion, err := loadDoc(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "itsbench diff:", err)
		return 2
	}
	if oldVersion != newVersion {
		fmt.Fprintf(os.Stderr,
			"itsbench diff: schema version mismatch: %s is v%d, %s is v%d; "+
				"regenerate the older document before comparing\n",
			fs.Arg(0), oldVersion, fs.Arg(1), newVersion)
		return 3
	}
	drifts, compared := diffDocs(oldDoc, newDoc)
	if len(drifts) == 0 {
		fmt.Fprintf(out, "itsbench diff: no drift (%d values compared)\n", compared)
		return 0
	}
	for _, d := range drifts {
		fmt.Fprintln(out, d)
	}
	fmt.Fprintf(out, "itsbench diff: %d metrics drifted\n", len(drifts))
	return 1
}

func loadDoc(path string) (map[string]any, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	doc, version, err := parseDoc(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return doc, version, nil
}

// parseDoc decodes a -format json document and its schema version. Numbers
// stay json.Number, so int64 nanoseconds compare exactly.
func parseDoc(data []byte) (map[string]any, int, error) {
	var head struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, 0, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, 0, err
	}
	return doc, head.SchemaVersion, nil
}

// diffDocs walks two decoded documents in step — maps by sorted key,
// arrays by index — and returns one line per differing value or one-sided
// entry, plus the number of values compared.
func diffDocs(oldDoc, newDoc map[string]any) (drifts []string, compared int) {
	var walk func(path string, a, b any)
	walk = func(path string, a, b any) {
		switch av := a.(type) {
		case map[string]any:
			if bv, ok := b.(map[string]any); ok {
				for _, k := range sortedKeys(av) {
					if _, ok := bv[k]; !ok {
						drifts = append(drifts, join(path, k)+": missing from new document")
						continue
					}
					walk(join(path, k), av[k], bv[k])
				}
				for _, k := range sortedKeys(bv) {
					if _, ok := av[k]; !ok {
						drifts = append(drifts, join(path, k)+": only in new document")
					}
				}
				return
			}
		case []any:
			if bv, ok := b.([]any); ok {
				for i := 0; i < max(len(av), len(bv)); i++ {
					p := fmt.Sprintf("%s[%d]", path, i)
					switch {
					case i >= len(bv):
						drifts = append(drifts, p+": missing from new document")
					case i >= len(av):
						drifts = append(drifts, p+": only in new document")
					default:
						walk(p, av[i], bv[i])
					}
				}
				return
			}
		case json.Number:
			if bv, ok := b.(json.Number); ok {
				compared++
				if av != bv {
					x, _ := av.Float64()
					y, _ := bv.Float64()
					drifts = append(drifts, fmt.Sprintf("%s: %s -> %s (%+.3g%%)", path, av, bv, relChange(x, y)*100))
				}
				return
			}
		}
		compared++
		if !reflect.DeepEqual(a, b) {
			drifts = append(drifts, fmt.Sprintf("%s: %v -> %v", path, a, b))
		}
	}
	walk("", oldDoc, newDoc)
	return drifts, compared
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// relChange is b-a relative to |a| (or to |b| when a is zero, so appearing
// and disappearing values always register).
func relChange(a, b float64) float64 {
	base := math.Abs(a)
	if base == 0 {
		base = math.Abs(b)
	}
	if base == 0 {
		return 0
	}
	return (b - a) / base
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
