package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

// TestTestVariantFactFlow pins the loader's test-variant handling
// against a scratch module:
//
//   - the test-augmented variant "p [p.test]" replaces the plain
//     package, so facts computed there cover the in-package _test.go
//     helpers too;
//   - the external test package "p_test [p.test]" resolves its import
//     of p to the augmented variant via ImportMap, and — because facts
//     are keyed by base import path — reads the facts the variant
//     exported.
//
// Both are asserted on the facts themselves: a taint source in the
// plain package must surface as TaintFacts on the in-package test
// helper and on the external test's wrapper.
func TestTestVariantFactFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and lints a scratch module")
	}
	dir := t.TempDir()
	writeScratch(t, dir, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"pkg/pkg.go": `package pkg

import "time"

func Stamp() int64 { return time.Now().UnixNano() }

func Twice() int64 { return Stamp() * 2 }
`,
		"pkg/inpkg_test.go": `package pkg

func helperForTest() int64 { return Stamp() }
`,
		"pkg/ext_test.go": `package pkg_test

import (
	"testing"

	"tmpmod/pkg"
)

func wrap() int64 { return pkg.Twice() }

func TestWrap(t *testing.T) {
	if wrap() == 0 {
		t.Skip("clock at epoch")
	}
}
`,
	})

	facts := analysis.NewFactStore()
	findings, err := lint.Run([]string{"./..."}, lint.Options{
		Dir:       dir,
		Tests:     true,
		Analyzers: []*analysis.Analyzer{lint.VTFlow},
		Facts:     facts,
	})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	// The scratch module is outside vtflow's scope, so facts are
	// computed but no diagnostics surface.
	for _, f := range findings {
		t.Errorf("unexpected finding in out-of-scope scratch module: %s", f)
	}
	var fact lint.TaintFact
	for _, probe := range []struct{ pkg, key string }{
		{"tmpmod/pkg", "Stamp"},         // plain source
		{"tmpmod/pkg", "Twice"},         // propagation within the package
		{"tmpmod/pkg", "helperForTest"}, // in-package test helper: only exists in the augmented variant
		{"tmpmod/pkg_test", "wrap"},     // external test: fact crossed from the augmented variant
	} {
		if !facts.ObjectFact(probe.pkg, probe.key, &fact) {
			t.Errorf("no TaintFact on %s.%s", probe.pkg, probe.key)
		} else if fact.Source != "time.Now" {
			t.Errorf("TaintFact on %s.%s names %q, want time.Now", probe.pkg, probe.key, fact.Source)
		}
	}
}

// TestStaleAllowDetection drives the full suite over a scratch module
// carrying one live allow (it suppresses a real novtime finding: used,
// silent) and one dead allow (nothing to suppress: reported as stale).
// The scratch module is named repro so its internal/core falls inside
// novtime's scope.
func TestStaleAllowDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and lints a scratch module")
	}
	dir := t.TempDir()
	writeScratch(t, dir, map[string]string{
		"go.mod": "module repro\n\ngo 1.24\n",
		"internal/core/core.go": `package core

import "time"

func nap() {
	time.Sleep(time.Millisecond) //repolint:allow novtime scratch fixture: the wall clock is the point
}

//repolint:allow novtime nothing reads the clock here; this directive is dead
var answer = 42
`,
	})

	findings, err := lint.Run([]string{"./..."}, lint.Options{Dir: dir, Tests: true})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	var stale []lint.Finding
	for _, f := range findings {
		if f.Category == "stale-allow" {
			stale = append(stale, f)
			continue
		}
		t.Errorf("unexpected finding: %s", f)
	}
	if len(stale) != 1 {
		t.Fatalf("got %d stale-allow findings, want exactly 1 (the dead directive): %v", len(stale), stale)
	}
	if !strings.Contains(stale[0].Message, "novtime") {
		t.Errorf("stale finding does not name the directive's analyzer: %s", stale[0].Message)
	}
	// KeepSuppressed surfaces what the live allow is holding back,
	// with its reason — the -json audit view.
	kept, err := lint.Run([]string{"./..."}, lint.Options{Dir: dir, Tests: true, KeepSuppressed: true})
	if err != nil {
		t.Fatalf("lint.Run (KeepSuppressed): %v", err)
	}
	var suppressed []lint.Finding
	for _, f := range kept {
		if f.Suppressed {
			suppressed = append(suppressed, f)
		}
	}
	if len(suppressed) != 1 {
		t.Fatalf("got %d suppressed findings, want 1 (the allowed novtime call): %v", len(suppressed), suppressed)
	}
	if suppressed[0].Analyzer != "novtime" || !strings.Contains(suppressed[0].Reason, "the wall clock is the point") {
		t.Errorf("suppressed finding = %+v, want the novtime call with its allow reason", suppressed[0])
	}
}

func writeScratch(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
