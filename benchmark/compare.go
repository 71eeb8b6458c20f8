package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// compareFiles prints, per (workload, end-to-end metric), both medians,
// the change from a to b and the bound, and reports whether b is no worse
// than a: no metric worse by more than its bound, no rise in the share of
// failed operations, and — the seeds being equal — every sim_digest and
// every exact core.* count unchanged. It is the tool the repeatability
// criterion and every later performance PR use.
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	load := func(path string) (*suiteResult, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := new(suiteResult)
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return r, nil
	}
	a, err := load(pathA)
	if err != nil {
		return false, err
	}
	b, err := load(pathB)
	if err != nil {
		return false, err
	}

	ok := true
	flag := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(out, "REGRESSION: "+format+"\n", args...)
	}
	fmt.Fprintf(out, "%-16s %-12s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "change", "bound")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa.EndToEnd == nil || wb.EndToEnd == nil {
			flag("%s: missing from a result file", w.Name)
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd.Metrics[d.Name].Value, wb.EndToEnd.Metrics[d.Name].Value
			change := (vb - va) / va
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			verdict := ""
			if worse > d.Bound {
				verdict = " WORSE"
				flag("%s %s worsened by %.1f%%, bound %.0f%%", w.Name, d.Name, worse*100, d.Bound*100)
			}
			fmt.Fprintf(out, "%-16s %-12s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				w.Name, d.Name, va, vb, change*100, d.Bound*100, verdict)
		}
		fa, fb := wa.EndToEnd, wb.EndToEnd
		fmt.Fprintf(out, "%-16s %-12s %14s %14s\n", w.Name, "ops_failed",
			fmt.Sprintf("%d/%d", fa.Failed, fa.Attempted), fmt.Sprintf("%d/%d", fb.Failed, fb.Attempted))
		if fb.Failed*fa.Attempted > fa.Failed*fb.Attempted {
			flag("%s: share of failed operations rose", w.Name)
		}
		if a.Seed != b.Seed {
			continue
		}
		if fa.Digest != fb.Digest {
			flag("%s: sim_digest differs (%s, %s): the simulation changed", w.Name, fa.Digest, fb.Digest)
		}
		if wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, d := range perLayer {
			exact := d.Unit == "count" && strings.HasPrefix(d.Name, "core.") || d.Name == "experiments.table1_mape_pct"
			if va, vb := wa.PerLayer.Metrics[d.Name].Value, wb.PerLayer.Metrics[d.Name].Value; exact && va != vb {
				flag("%s: %s is %v in a and %v in b; it must repeat exactly", w.Name, d.Name, va, vb)
			}
		}
	}
	return ok, nil
}
