package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"

	"itsim/internal/analysis/driver"
)

// Minimal SARIF 2.1.0 shapes — what GitHub code scanning and most editors
// ingest. Only the fields itslint populates are modeled.

type sarifFile struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// sarifLog renders the (already position-sorted) diagnostics as a SARIF
// 2.1.0 log. The rule table carries every analyzer in the suite, found or
// not, so consumers can enumerate what was checked.
func sarifLog(diags []driver.Diagnostic) []byte {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: docSummary(a.Doc)}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(relPath(d.Posn.Filename))},
				Region:           sarifRegion{StartLine: d.Posn.Line, StartColumn: d.Posn.Column},
			}}},
		})
	}
	log := sarifFile{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "itslint", InformationURI: "docs/LINTS.md", Rules: rules}},
			Results: results,
		}},
	}
	out, _ := json.MarshalIndent(log, "", "  ")
	return append(out, '\n')
}

// docSummary truncates an analyzer doc to its first clause for the SARIF
// rule table.
func docSummary(doc string) string {
	if i := strings.IndexAny(doc, ";\n"); i >= 0 {
		return doc[:i]
	}
	return doc
}

// relPath makes a diagnostic path relative to the working directory when
// it sits under it, which is what editors and code-scanning consumers
// expect.
func relPath(path string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return path
}
