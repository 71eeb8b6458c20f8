// Command repolint runs the repo's determinism & ownership contract
// analyzers (internal/lint) over the given packages and reports every
// finding not covered by a reasoned //repolint:allow comment.
//
//	repolint [-tests=false] [-json] [-github] [packages...]
//
// Default packages: ./... . Output modes:
//
//	(default)  one finding per line, editor-clickable
//	-json      machine-readable array (file/line/analyzer/message,
//	           plus the suppressed findings with their allow
//	           reasons, so audits see what the allows hold back)
//	-github    GitHub Actions workflow commands (::error ...) so
//	           findings land as inline annotations on the PR diff
//
// Exit status: 0 clean, 1 findings, 2 load/driver error. `make lint`
// runs it over ./... as part of `make check` and CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	tests := flag.Bool("tests", true, "also lint _test.go files and external test packages")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (includes suppressed findings with reasons)")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repolint [-tests=false] [-json] [-github] [packages...]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nsuppress a deliberate finding with //repolint:allow <analyzer> <reason>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := lint.Run(patterns, lint.Options{Tests: *tests, KeepSuppressed: *jsonOut})
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, name); err == nil {
				return r
			}
		}
		return name
	}

	live := 0
	for _, f := range findings {
		if !f.Suppressed {
			live++
		}
	}

	switch {
	case *jsonOut:
		type finding struct {
			File       string `json:"file"`
			Line       int    `json:"line"`
			Column     int    `json:"column"`
			Analyzer   string `json:"analyzer"`
			Category   string `json:"category,omitempty"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
			Reason     string `json:"reason,omitempty"`
		}
		out := make([]finding, 0, len(findings))
		for _, f := range findings {
			out = append(out, finding{
				File: rel(f.Pos.Filename), Line: f.Pos.Line, Column: f.Pos.Column,
				Analyzer: f.Analyzer, Category: f.Category, Message: f.Message,
				Suppressed: f.Suppressed, Reason: f.Reason,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
			os.Exit(2)
		}
	case *github:
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			// Workflow command: newlines and the %-escapes per the
			// Actions annotation grammar.
			msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(f.Message)
			fmt.Printf("::error file=%s,line=%d,col=%d,title=repolint/%s::%s\n",
				rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, msg)
		}
	default:
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			f.Pos.Filename = rel(f.Pos.Filename)
			fmt.Println(f)
		}
	}
	if live > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", live)
		os.Exit(1)
	}
}
