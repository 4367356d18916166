// Package schemafreeze guards the simulator's output schemas, the layouts
// `itsbench diff`, committed baseline documents and the CI determinism
// smokes compare against. It has two halves.
//
// Summary layout: an exported struct whose type declaration carries
// //itslint:frozen has its layout — field names, types, order and JSON
// tags — compared against the committed baseline in
// internal/analysis/testdata/frozen.json. Any drift (a field added,
// removed, renamed, retyped, reordered or retagged) without regenerating
// the baseline fails the lint, so schema changes to Summary, FleetSummary
// and friends are always a reviewed diff of frozen.json, never an accident.
// The drift report also names every added field that would change the
// bytes of existing documents — an exported field whose JSON tag has
// neither omitempty nor "-" — because such a field shows up in every run's
// output, not only in runs that exercise the new feature.
//
// Event vocabulary: every switch over the obs event type in a sink or a
// trace consumer must handle every kind or default explicitly (events.go).
//
// Regenerate the baseline with `itslint freeze`: it drives the analyzer in
// freeze mode (-schemafreeze.freeze=<file>, each vet worker appends its
// package's records) and rewrites the baseline sorted.
package schemafreeze

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/itslint"
)

// Analyzer is the schemafreeze pass.
var Analyzer = &analysis.Analyzer{
	Name: "schemafreeze",
	Doc: "compare //itslint:frozen struct layouts (field names, types, order, JSON tags) " +
		"against the committed frozen.json baseline (regenerate with `itslint freeze`), and require " +
		"obs sinks and trace consumers to handle (or explicitly default) every event kind",
	Run: run,
}

// BaselineRel is the repo-relative path of the committed baseline.
const BaselineRel = "internal/analysis/testdata/frozen.json"

// The flag values live in package variables (not looked up through
// Analyzer) so run does not reference Analyzer — that would be an
// initialization cycle.
var (
	baselineFlag string
	freezeFlag   string
)

func init() {
	Analyzer.Flags.StringVar(&baselineFlag, "baseline", "",
		"path to the frozen-schema baseline (default: "+BaselineRel+" under the module root)")
	Analyzer.Flags.StringVar(&freezeFlag, "freeze", "",
		"freeze mode: append this package's frozen-struct records to the named file instead of checking")
}

// Record is one frozen struct's layout, as serialized into the baseline
// and the freeze-mode capture file.
type Record struct {
	Name   string `json:"name"`   // fully qualified: importpath.StructName
	Layout string `json:"layout"` // canonical field descriptor
}

func run(pass *analysis.Pass) (any, error) {
	recs := collect(pass)
	if freezeFlag != "" {
		return nil, appendRecords(freezeFlag, recs)
	}
	checkEvents(pass)
	return nil, checkLayouts(pass, recs)
}

// checkLayouts compares the package's frozen structs with the baseline.
// Drift has no //itslint:allow escape: the escape is regenerating the
// baseline.
func checkLayouts(pass *analysis.Pass, recs []posRecord) error {
	if len(recs) == 0 {
		return nil
	}
	baseline, path, err := loadBaseline(pass, recs[0].pos)
	if err != nil {
		return err
	}
	for _, r := range recs {
		want, ok := baseline[r.Name]
		switch {
		case !ok:
			pass.Reportf(r.pos,
				"frozen struct %s is not in the frozen-schema baseline %s: run `itslint freeze` and commit the result",
				r.Name, path)
		case want != r.Layout:
			pass.Reportf(r.pos,
				"frozen struct %s drifted from the committed baseline: have [%s], baseline [%s]%s; "+
					"if the schema change is intended, run `itslint freeze` and commit the regenerated %s",
				r.Name, r.Layout, want, bytesNote(r, want), path)
		}
	}
	return nil
}

type posRecord struct {
	Record
	pos token.Pos
	// bare names the exported fields always present in the JSON output:
	// tagged neither omitempty nor "-".
	bare []string
}

// bytesNote names the bare fields missing from the baseline layout: each
// changes the bytes of every serialized document, so it wants omitempty.
func bytesNote(r posRecord, baseline string) string {
	var added []string
	for _, name := range r.bare {
		if !strings.Contains("; "+baseline, "; "+name+" ") {
			added = append(added, name)
		}
	}
	if len(added) == 0 {
		return ""
	}
	return fmt.Sprintf("; new fields %s lack `json:\"…,omitempty\"` and would change the byte layout "+
		"of every summary, invalidating committed baselines and `itsbench diff` documents",
		strings.Join(added, ", "))
}

// collect returns the package's frozen-struct records in file order.
func collect(pass *analysis.Pass) []posRecord {
	var out []posRecord
	for _, f := range pass.Files {
		if itslint.IsTestFile(pass, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !itslint.IsFrozen(gd.Doc, ts.Doc) {
					continue
				}
				desc, bare := layout(pass, st)
				out = append(out, posRecord{
					Record: Record{Name: pass.Pkg.Path() + "." + ts.Name.Name, Layout: desc},
					pos:    ts.Pos(),
					bare:   bare,
				})
			}
		}
	}
	return out
}

// layout renders the canonical field descriptor: one `Name Type json:"tag"`
// entry per field in declaration order, joined with "; ". Unexported fields
// participate too — they shift the reflect-visible layout and gob wire
// order even when encoding/json skips them. bare lists the exported fields
// always present in the JSON output: tagged neither omitempty nor "-".
func layout(pass *analysis.Pass, st *ast.StructType) (desc string, bare []string) {
	var fields []string
	for _, field := range st.Fields.List {
		typStr := "?"
		if typ := pass.TypesInfo.TypeOf(field.Type); typ != nil {
			typStr = typ.String()
		}
		tag, jt := "", ""
		if field.Tag != nil {
			if unq, err := strconv.Unquote(field.Tag.Value); err == nil {
				if v, ok := reflect.StructTag(unq).Lookup("json"); ok {
					jt, tag = v, fmt.Sprintf(" json:%q", v)
				}
			}
		}
		_, opts, _ := strings.Cut(jt, ",")
		omitted := jt == "-" || strings.Contains(","+opts+",", ",omitempty,")
		if len(field.Names) == 0 {
			// Embedded field: the type is the name.
			fields = append(fields, typStr+tag)
			continue
		}
		for _, name := range field.Names {
			fields = append(fields, name.Name+" "+typStr+tag)
			if name.IsExported() && !omitted {
				bare = append(bare, name.Name)
			}
		}
	}
	return strings.Join(fields, "; "), bare
}

// appendRecords writes the package's records to the freeze capture file,
// one JSON object per line (append-only, so concurrent vet workers
// interleave whole records like the suppression summary).
func appendRecords(path string, recs []posRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, r := range recs {
		line, err := json.Marshal(r.Record)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// MergeCapture parses a freeze capture (JSON lines) into the baseline map,
// rejecting conflicting duplicates (the same struct frozen with two
// different layouts can only be a build-setup bug).
func MergeCapture(data []byte) (map[string]string, error) {
	out := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("bad capture line %q: %v", line, err)
		}
		if prev, ok := out[r.Name]; ok && prev != r.Layout {
			return nil, fmt.Errorf("conflicting layouts captured for %s: [%s] vs [%s]", r.Name, prev, r.Layout)
		}
		out[r.Name] = r.Layout
	}
	return out, nil
}

// FormatBaseline renders the baseline deterministically (sorted keys,
// one record per line) for committing.
func FormatBaseline(baseline map[string]string) []byte {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, name := range names {
		key, _ := json.Marshal(name)
		val, _ := json.Marshal(baseline[name])
		fmt.Fprintf(&b, "  %s: %s", key, val)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return []byte(b.String())
}

// loadBaseline reads the baseline: the -schemafreeze.baseline flag if set,
// else BaselineRel under the module root found by walking up from the
// package's first frozen struct. A missing file is an empty baseline (every
// frozen struct then reports as unregistered).
func loadBaseline(pass *analysis.Pass, at token.Pos) (map[string]string, string, error) {
	path := baselineFlag
	if path == "" {
		dir := filepath.Dir(pass.Fset.Position(at).Filename)
		root := findModuleRoot(dir)
		if root == "" {
			return nil, "", fmt.Errorf("schemafreeze: cannot locate module root above %s (pass -schemafreeze.baseline)", dir)
		}
		path = filepath.Join(root, filepath.FromSlash(BaselineRel))
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]string{}, path, nil
	}
	if err != nil {
		return nil, "", err
	}
	var baseline map[string]string
	if err := json.Unmarshal(data, &baseline); err != nil {
		return nil, "", fmt.Errorf("schemafreeze: parsing baseline %s: %v", path, err)
	}
	return baseline, path, nil
}

func findModuleRoot(dir string) string {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
