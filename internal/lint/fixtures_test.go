package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/linttest"
)

// Golden-fixture coverage: every analyzer gets at least one true
// positive and one near-miss (a case just on the legal side of the
// contract) under testdata/<name>/.

func TestDetOrderFixtures(t *testing.T)   { linttest.Run(t, lint.DetOrder, "testdata/detorder") }
func TestNoVTimeFixtures(t *testing.T)    { linttest.Run(t, lint.NoVTime, "testdata/novtime") }
func TestSingleUseFixtures(t *testing.T)  { linttest.Run(t, lint.SingleUse, "testdata/singleuse") }
func TestMetaFreezeFixtures(t *testing.T) { linttest.Run(t, lint.MetaFreeze, "testdata/metafreeze") }
func TestScratchOwnFixtures(t *testing.T) { linttest.Run(t, lint.ScratchOwn, "testdata/scratchown") }

// The interprocedural analyzers get multi-package fixture trees: their
// findings only exist because facts crossed package boundaries.

func TestVTFlowFixtures(t *testing.T) {
	facts := linttest.RunPackages(t, lint.VTFlow, "testdata/vtflow")
	// The two-imports-away proof, stated on the facts themselves: the
	// sink package c matched findings (see its want comments) that
	// require taint computed in a to flow through b's exported fact.
	var fact lint.TaintFact
	for _, probe := range []struct{ pkg, key string }{
		{"fixtures/vtflow/a", "Stamp"},
		{"fixtures/vtflow/b", "Wrap"},
	} {
		if !factsObject(facts, probe.pkg, probe.key, &fact) {
			t.Errorf("no TaintFact on %s.%s; cross-package taint would be invisible", probe.pkg, probe.key)
		} else if fact.Source != "time.Now" {
			t.Errorf("TaintFact on %s.%s names source %q, want time.Now", probe.pkg, probe.key, fact.Source)
		}
	}
}

func TestSharedMutFixtures(t *testing.T) {
	facts := linttest.RunPackages(t, lint.SharedMut, "testdata/sharedmut")
	var inv lint.SharingFact
	if !facts.PackageFact("fixtures/sharedmut/owner", &inv) {
		t.Fatal("owner package exported no SharingFact inventory")
	}
	want := map[string]string{
		"Pool":     "self-synchronizing",
		"Registry": "immutable-by-convention",
		"Counter":  "mutable",
		"Cache":    "mutex-guarded",
	}
	got := map[string]string{}
	for _, v := range inv.Vars {
		got[v.Name] = v.Class
	}
	for name, class := range want {
		if got[name] != class {
			t.Errorf("inventory classifies %s as %q, want %q", name, got[name], class)
		}
	}
}

// TestRunCleanAtHead drives the real driver end to end over the whole
// module, tests included — the same run `make lint` performs: the load
// path, fact propagation, scoping, allow filtering, and stale-allow
// detection must leave zero findings at HEAD.
func TestRunCleanAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list + full module typecheck")
	}
	findings, err := lint.Run([]string{"./..."}, lint.Options{
		Dir:   moduleRoot(t),
		Tests: true,
	})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding at HEAD: %s", f)
	}
}

// TestSharingReportFresh pins the committed PDES_SHARING.md to the
// sharedmut inventory at HEAD: adding, removing, or re-classifying a
// package-level variable in the PDES sharing surface must regenerate
// the baseline (make sharing-report).
func TestSharingReportFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list + full module typecheck")
	}
	root := moduleRoot(t)
	facts := analysis.NewFactStore()
	if _, err := lint.Run([]string{"./..."}, lint.Options{
		Dir:       root,
		Tests:     false, // the committed baseline covers the non-test sharing surface
		Analyzers: []*analysis.Analyzer{lint.SharedMut},
		Facts:     facts,
	}); err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	want := lint.SharingReport(facts)
	got, err := os.ReadFile(filepath.Join(root, "PDES_SHARING.md"))
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	if string(got) != want {
		t.Errorf("PDES_SHARING.md is stale; regenerate with `make sharing-report`.\n--- committed ---\n%s\n--- generated ---\n%s", got, want)
	}
}

func factsObject(facts *analysis.FactStore, pkg, key string, fact analysis.Fact) bool {
	return facts.ObjectFact(pkg, key, fact)
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
