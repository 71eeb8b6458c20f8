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

// The interprocedural analyzer gets a multi-package fixture tree: its
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
