// Command unilint runs the repo's determinism & concurrency analyzer suite
// (internal/lint) over the module and fails on any unsuppressed finding:
//
//	go run ./cmd/unilint ./...
//
// Findings print one per line as "file:line:col: analyzer: message". A
// finding is suppressed by annotating the offending line (trailing, or the
// line directly above) with
//
//	//det:ok <analyzer> <reason>
//
// where the reason is mandatory — a reasonless or unknown-analyzer
// suppression is itself a finding, and a suppression that no longer
// suppresses anything is one too (detokstale).
//
// -sarif renders the findings as a SARIF 2.1.0 log for CI annotation
// (GitHub code scanning), with paths relative to the module root. The exit
// status is the same in both output modes: 0 clean, 1 findings, 2 usage or
// load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("dir", ".", "directory whose module is analyzed")
	asSARIF := fs.Bool("sarif", false, "print findings as a SARIF 2.1.0 log")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: unilint [-dir root] [-sarif] [packages]\n\nAnalyzes the module's packages (default ./...) and exits nonzero on findings.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "unilint: %v\n", err)
		return 2
	}
	findings := lint.RunAll(analyzers, pkgs)
	if *asSARIF {
		// Load succeeded, so the module root resolves; relativized paths
		// keep the log stable across checkouts.
		root, err := lint.ModuleRoot(*dir)
		if err == nil {
			err = writeSARIF(stdout, root, analyzers, findings)
		}
		if err != nil {
			fmt.Fprintf(stderr, "unilint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "unilint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
