package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"itsim/internal/analysis/itslint"
)

// vetDiag is one diagnostic out of `go vet -json` (the x/tools
// analysisflags JSON tree), flattened with its package and analyzer.
type vetDiag struct {
	Package  string
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
	Fixes    []vetFix
}

type vetFix struct {
	Message string    `json:"message"`
	Edits   []vetEdit `json:"edits"`
}

// vetEdit is a byte-offset splice within Filename: [Start, End) replaced
// by New.
type vetEdit struct {
	Filename string `json:"filename"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	New      string `json:"new"`
}

type jsonDiagnostic struct {
	Posn           string   `json:"posn"`
	Message        string   `json:"message"`
	SuggestedFixes []vetFix `json:"suggested_fixes"`
}

// nonceArg mints the cache-busting flag for one driver invocation (see the
// comment in main).
func nonceArg() string {
	return fmt.Sprintf("-entropyflow.nonce=%d.%d", os.Getpid(), time.Now().UnixNano())
}

// vetJSON drives `go vet -json -vettool=<self>` over pkgs and parses the
// emitted diagnostic tree. In JSON mode vet exits 0 when the analyses ran,
// so findings come back as diagnostics, not an error; a nonzero exit means
// an operational failure (a package that does not compile, a bad flag).
// summaryPath, when non-empty, receives the //itslint:allow suppression
// records through the $ITSLINT_SUMMARY side channel.
func vetJSON(exe string, extra, pkgs []string, summaryPath string) ([]vetDiag, error) {
	args := append([]string{"vet", "-json", "-vettool=" + exe, nonceArg()}, extra...)
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if summaryPath != "" {
		cmd.Env = append(os.Environ(), itslint.SummaryEnv+"="+summaryPath)
	}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go vet: %v\n%s%s", err, stderr.String(), stdout.String())
	}
	// go vet writes the JSON tree to stderr interleaved with `# pkg`
	// progress lines; scan both streams to stay robust to that moving.
	var diags []vetDiag
	for _, stream := range [][]byte{stderr.Bytes(), stdout.Bytes()} {
		diags = append(diags, parseVetJSON(stream)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// parseVetJSON decodes a stream of JSON tree objects (one per package,
// pkgID → analyzer → diagnostics), skipping the `#` comment lines.
func parseVetJSON(data []byte) []vetDiag {
	var clean bytes.Buffer
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	var diags []vetDiag
	dec := json.NewDecoder(&clean)
	for {
		var tree map[string]map[string]json.RawMessage
		if err := dec.Decode(&tree); err != nil {
			return diags // io.EOF, or trailing non-JSON noise
		}
		for pkgID, byAnalyzer := range tree {
			for name, raw := range byAnalyzer {
				var list []jsonDiagnostic
				if err := json.Unmarshal(raw, &list); err != nil {
					continue // a per-analyzer error object, not a diagnostic list
				}
				for _, d := range list {
					file, line, col := splitPosn(d.Posn)
					diags = append(diags, vetDiag{
						Package:  pkgID,
						Analyzer: name,
						File:     file,
						Line:     line,
						Col:      col,
						Message:  d.Message,
						Fixes:    d.SuggestedFixes,
					})
				}
			}
		}
	}
}

// splitPosn splits an analysisflags position string "file:line:col".
func splitPosn(posn string) (file string, line, col int) {
	i := strings.LastIndex(posn, ":")
	if i < 0 {
		return posn, 0, 0
	}
	col, _ = strconv.Atoi(posn[i+1:])
	rest := posn[:i]
	j := strings.LastIndex(rest, ":")
	if j < 0 {
		return rest, col, 0
	}
	line, _ = strconv.Atoi(rest[j+1:])
	return rest[:j], line, col
}
