// Machine-readable output: -sarif for CI annotation (SARIF 2.1.0, the
// format GitHub code scanning ingests). It renders the same sorted finding
// list the plain-text mode prints, with paths relativized to the module
// root so output is stable across checkouts.
package main

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// relPath renders a finding path relative to the module root (slash-
// separated); paths outside the root pass through unchanged.
func relPath(root, file string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(file)
}

// The subset of SARIF 2.1.0 the GitHub upload-sarif action consumes.
type sarifLog struct {
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
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
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
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF renders findings as a single-run SARIF log. Every analyzer is
// listed as a rule — plus the detok pseudo-rule, under which annotation
// grammar findings report — so rule metadata resolves even on clean runs.
func writeSARIF(w io.Writer, root string, analyzers []*lint.Analyzer, findings []lint.Finding) error {
	driver := sarifDriver{Name: "unilint", Rules: []sarifRule{}}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
		})
	}
	driver.Rules = append(driver.Rules, sarifRule{
		ID:               lint.SuppressionsAnalyzer,
		ShortDescription: sarifText{Text: "malformed //det:ok suppression annotation"},
	})
	results := []sarifResult{}
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relPath(root, f.Pos.Filename), URIBaseID: "%SRCROOT%"},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
