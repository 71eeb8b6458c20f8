// Package lint is repolint: the repo's determinism and ownership
// contracts compiled into static-analysis passes. Each PR so far
// shipped those contracts as prose "behavior notes" in CHANGES.md and
// pinned them with golden tests after the fact; the analyzers here
// check them at the source level on every `make check` and CI push,
// before a violation ever reaches an emulation run.
//
// The six analyzers and the notes they mechanize:
//
//   - detorder: map iteration feeding output must sort keys first
//     (the Fig9CSV class of bug PR 1 fixed by luck).
//   - novtime: virtual-clock packages use vtime and seeded RNGs only —
//     no wall clock, no global math/rand (determinism by construction).
//   - singleuse: sinks and arrival sources are single-use per run and
//     must be built inside the sweep cell that uses them (PR 3/PR 6).
//   - metafreeze: a *sched.ReadyMeta is frozen once pushed into the
//     ready window (PR 5's pointer-validity contract).
//   - scratchown: Instances() views die at the next Run on the same
//     emulator, and a core.Scratch never crosses goroutines (PR 2).
//   - vtflow: the novtime contract made transitive — wall-clock and
//     global-rand values are tracked through helper functions and
//     struct fields (via analyzer facts) into the virtual-clock
//     packages, wherever in the module the source lives.
//
// The driver loads packages itself (see load.go), orders them
// bottom-up over the import graph, and applies per-analyzer package
// scoping. Analyzers without facts stay pure functions of one
// type-checked package; analyzers with FactTypes run over every
// package (facts must be computed module-wide) and Scope then filters
// which packages' diagnostics are reported.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzers returns repolint's analyzer suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DetOrder, NoVTime, SingleUse, MetaFreeze, ScratchOwn, VTFlow,
	}
}

// Scope restricts analyzers to the packages whose contract they
// encode; an absent entry means the analyzer reports everywhere. Paths
// match the package or any subpackage, with test variants normalized
// (external test packages match their package under test). For
// analyzers without facts the driver skips out-of-scope packages
// entirely; fact-carrying analyzers run everywhere (facts are a
// whole-module computation) and only their diagnostics are filtered.
var Scope = map[string][]string{
	// The byte-determinism surface: packages whose output lands in
	// CSVs, reports, goldens, or hashes.
	"detorder": {
		"repro/internal/core", "repro/internal/sched", "repro/internal/sweep",
		"repro/internal/experiments", "repro/internal/stats", "repro/internal/platevent",
	},
	// The virtual-clock packages: everything inside an emulation's
	// causal order. sweep is deliberately absent (its progress/ETA
	// output is wall-clock by design), as is vtime itself (the jitter
	// model owns its seeded RNG).
	"novtime": {
		"repro/internal/core", "repro/internal/sched", "repro/internal/platevent",
		"repro/internal/workload", "repro/internal/experiments",
	},
	// vtflow reports where novtime does — the same virtual-clock
	// surface, but with taint arriving through any number of helper
	// hops; facts are still computed over the whole module.
	"vtflow": {
		"repro/internal/core", "repro/internal/sched", "repro/internal/platevent",
		"repro/internal/workload", "repro/internal/experiments",
	},
}

// Finding is one reported diagnostic, position-resolved.
type Finding struct {
	Pos      token.Position
	Analyzer string
	// Category refines repolint's own findings ("malformed-allow",
	// "stale-allow"); empty for ordinary analyzer diagnostics.
	Category string
	Message  string
	// Suppressed marks findings covered by a reasoned
	// //repolint:allow; they are only collected under
	// Options.KeepSuppressed (the -json machine-readable output
	// records them so audits see what the allows are holding back).
	Suppressed bool
	// Reason is the allow directive's reason for suppressed findings.
	Reason string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Options configure Run.
type Options struct {
	// Dir is where `go list` runs; empty = current directory.
	Dir string
	// Tests includes _test.go files (default in cmd/repolint: on).
	Tests bool
	// Analyzers overrides the suite; nil runs Analyzers().
	Analyzers []*analysis.Analyzer
	// KeepSuppressed also returns findings covered by an allow
	// directive, marked Suppressed with their Reason.
	KeepSuppressed bool
	// Facts, when non-nil, is used as the run's fact store and left
	// populated afterwards, so a caller can probe what the
	// interprocedural analyzers exported (ObjectFact).
	Facts *analysis.FactStore
}

// Run loads the packages matched by patterns and applies the analyzer
// suite, honouring Scope and //repolint:allow suppressions. The
// returned findings are sorted by position; a non-empty slice of
// unsuppressed findings means the tree violates a contract (or
// carries a malformed or stale suppression).
func Run(patterns []string, opts Options) ([]Finding, error) {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = Analyzers()
	}
	pkgs, fset, err := Load(patterns, LoadOptions{Dir: opts.Dir, Tests: opts.Tests})
	if err != nil {
		return nil, err
	}

	facts := opts.Facts
	if facts == nil {
		facts = analysis.NewFactStore()
	}

	// Directives must recognize every suite analyzer, not just the
	// ones this run executes: a subset run (Options.Analyzers) must
	// not misreport another analyzer's allow as unknown.
	known := map[string]bool{"*": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var findings []Finding
	for _, pkg := range pkgs {
		allows := allowSet{}
		for _, f := range pkg.Files {
			findings = append(findings, parseAllows(fset, f, known, allows)...)
		}
		// reporting is the set of analyzers whose findings can surface
		// in this package — what an allow directive here could
		// legitimately be suppressing.
		reporting := map[string]bool{}
		for _, a := range analyzers {
			interproc := len(a.FactTypes) > 0
			if inScope(a.Name, pkg.Path) {
				reporting[a.Name] = true
			} else if !interproc {
				continue // out of scope, no facts to compute: skip entirely
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
			}
			var diags []analysis.Diagnostic
			pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
			if interproc {
				facts.Bind(pass, pkg.Path)
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			if !reporting[a.Name] {
				continue // fact-only visit: diagnostics filtered by Scope
			}
			for _, d := range diags {
				pos := fset.Position(d.Pos)
				reason, suppressed := allows.covers(pos, a.Name)
				if suppressed && !opts.KeepSuppressed {
					continue
				}
				findings = append(findings, Finding{
					Pos: pos, Analyzer: a.Name, Message: d.Message,
					Suppressed: suppressed, Reason: reason,
				})
			}
		}
		// Stale-allow detection: a directive whose analyzer reported
		// nothing on its lines is dead and would rot the audit. Only
		// directives whose analyzer actually could report here are
		// judged — an allow for an analyzer excluded from this run (or
		// scoped away from this package) is merely unused, not stale.
		for _, d := range allows.directives() {
			if d.used {
				continue
			}
			applicable := d.analyzer == "*" && len(reporting) > 0 || reporting[d.analyzer]
			if !applicable {
				continue
			}
			findings = append(findings, Finding{
				Pos:      d.pos,
				Analyzer: "repolint",
				Category: "stale-allow",
				Message: fmt.Sprintf("stale //repolint:allow %s: no %s finding occurs on its lines anymore — remove the directive",
					d.analyzer, d.analyzer),
			})
		}
	}
	sortFindings(findings)
	return findings, nil
}

// inScope applies Scope to a normalized package path; external test
// packages ("p_test") inherit the scope of p.
func inScope(analyzer, pkgPath string) bool {
	roots, restricted := Scope[analyzer]
	if !restricted {
		return true
	}
	path := strings.TrimSuffix(pkgPath, "_test")
	for _, root := range roots {
		if path == root || strings.HasPrefix(path, root+"/") {
			return true
		}
	}
	return false
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
