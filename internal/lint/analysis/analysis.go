// Package analysis is a minimal, stdlib-only mirror of the
// golang.org/x/tools/go/analysis API surface that repolint needs:
// an Analyzer is a named check, a Pass hands it one type-checked
// package, and Report collects diagnostics.
//
// Why a mirror and not the real thing: this repo builds and lints in
// offline containers where golang.org/x/tools can be neither
// downloaded nor (without a first download) vendored, and pinning it
// in go.mod would make even `go build ./...` unresolvable offline —
// the module graph needs every required module's go.mod. The subset
// below is API-compatible in shape (Analyzer{Name, Doc, Run},
// Pass{Fset, Files, Pkg, TypesInfo, Report}), so if x/tools ever
// becomes vendorable the analyzers port by changing one import path
// and deleting this package plus the loader in internal/lint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Run inspects the package in
// pass and reports findings via pass.Report; the returned value is
// unused by repolint's driver (kept for x/tools API shape).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //repolint:allow suppression comments. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph contract the analyzer mechanizes.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)

	// FactTypes declares the fact types the analyzer exports and
	// imports (one zero value per concrete type, x/tools-style). A
	// non-empty list makes the analyzer interprocedural: the driver
	// runs it over every package of the module bottom-up in import
	// order — package Scope then filters which packages' diagnostics
	// are kept, never which packages are analyzed — so facts computed
	// in a dependency are visible when its importers are analyzed.
	FactTypes []Fact
}

// Pass is one (analyzer, package) unit of work. The driver guarantees
// Files are fully type-checked against Pkg with TypesInfo populated
// (Types, Defs, Uses, Selections).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Analyzers may report in any
	// order (ranging over TypesInfo maps is fine); the driver sorts
	// all findings by position before output.
	Report func(Diagnostic)

	// Fact plumbing, bound by the driver from its FactStore (no-ops
	// when the analyzer declares no FactTypes). Semantics mirror
	// x/tools: ExportObjectFact may only attach facts to objects of
	// the package under analysis; ImportObjectFact retrieves a fact
	// previously exported for obj — by this pass or by the pass over
	// obj's defining package — copying it into the supplied pointer
	// and reporting whether one existed.
	ExportObjectFact func(obj types.Object, fact Fact)
	ImportObjectFact func(obj types.Object, fact Fact) bool
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
