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
// Every pass returns the package's layouts as a Capture. `itslint freeze`
// regenerates the baseline from the captures of the packages it names,
// sorted.
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

// The flag value lives in a package variable (not looked up through
// Analyzer) so run does not reference Analyzer — that would be an
// initialization cycle.
var baselineFlag string

func init() {
	Analyzer.Flags.StringVar(&baselineFlag, "baseline", "",
		"path to the frozen-schema baseline (default: "+BaselineRel+" under the module root)")
}

// Capture is the pass's result: the package's frozen-struct layouts, keyed
// by the fully qualified struct name (importpath.StructName).
type Capture map[string]string

func run(pass *analysis.Pass) (any, error) {
	recs := collect(pass)
	checkEvents(pass)
	if err := checkLayouts(pass, recs); err != nil {
		return nil, err
	}
	capture := make(Capture, len(recs))
	for _, r := range recs {
		capture[r.name] = r.layout
	}
	return capture, nil
}

// MergeCapture adds a package's capture to the baseline being built,
// rejecting a second, different layout under one name.
func MergeCapture(baseline map[string]string, capture Capture) error {
	for name, layout := range capture {
		if prev, ok := baseline[name]; ok && prev != layout {
			return fmt.Errorf("conflicting layouts captured for %s: [%s] vs [%s]", name, prev, layout)
		}
		baseline[name] = layout
	}
	return nil
}

// checkLayouts compares the package's frozen structs with the baseline.
// Drift has no //itslint:allow escape: the escape is regenerating the
// baseline.
func checkLayouts(pass *analysis.Pass, recs []record) error {
	if len(recs) == 0 {
		return nil
	}
	baseline, path, err := loadBaseline(pass, recs[0].pos)
	if err != nil {
		return err
	}
	for _, r := range recs {
		want, ok := baseline[r.name]
		switch {
		case !ok:
			pass.Reportf(r.pos,
				"frozen struct %s is not in the frozen-schema baseline %s: run `itslint freeze` and commit the result",
				r.name, path)
		case want != r.layout:
			pass.Reportf(r.pos,
				"frozen struct %s drifted from the committed baseline: have [%s], baseline [%s]%s; "+
					"if the schema change is intended, run `itslint freeze` and commit the regenerated %s",
				r.name, r.layout, want, bytesNote(r, want), path)
		}
	}
	return nil
}

// record is one frozen struct: its qualified name, canonical field
// descriptor and position.
type record struct {
	name   string
	layout string
	pos    token.Pos
	// bare names the exported fields always present in the JSON output:
	// tagged neither omitempty nor "-".
	bare []string
}

// bytesNote names the bare fields missing from the baseline layout: each
// changes the bytes of every serialized document, so it wants omitempty.
func bytesNote(r record, baseline string) string {
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
func collect(pass *analysis.Pass) []record {
	var out []record
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
				out = append(out, record{
					name:   pass.Pkg.Path() + "." + ts.Name.Name,
					layout: desc,
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
// frozen struct then reports as unregistered). The returned name is how
// diagnostics refer to the file: the flag value, or BaselineRel.
func loadBaseline(pass *analysis.Pass, at token.Pos) (map[string]string, string, error) {
	path, name := baselineFlag, baselineFlag
	if path == "" {
		dir := filepath.Dir(pass.Fset.Position(at).Filename)
		root := findModuleRoot(dir)
		if root == "" {
			return nil, "", fmt.Errorf("schemafreeze: cannot locate module root above %s (pass -schemafreeze.baseline)", dir)
		}
		path, name = filepath.Join(root, filepath.FromSlash(BaselineRel)), BaselineRel
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]string{}, name, nil
	}
	if err != nil {
		return nil, "", err
	}
	var baseline map[string]string
	if err := json.Unmarshal(data, &baseline); err != nil {
		return nil, "", fmt.Errorf("schemafreeze: parsing baseline %s: %v", path, err)
	}
	return baseline, name, nil
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
