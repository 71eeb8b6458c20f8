// Command benchmark is the repository's measurement contract: seven named
// workloads, four end-to-end metrics with regression bounds, and a traced
// run that attributes host time to each layer from outside the packages'
// exported APIs. README.md explains every workload and metric;
// BENCHMARK.json at the repository root is table.go rendered.
//
//	go run -C benchmark . --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload (the driver's protocol): metrics by name
//	    with unit and sample count, then one JSON line
//	go run -C benchmark .
//	    every workload, untraced then traced, each in a fresh process;
//	    writes <out>/result.json beside the traces
//	go run -C benchmark . -compare a.json b.json
//	    two result files, metric by metric, against the bounds
//	go run -C benchmark . -list
//	    the table, as BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload (default: all of them, one process each)")
		seed         = flag.Int64("seed", defaultSeed, "every generated input derives from it")
		seconds      = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "1: alternate traced passes and report the per-layer metrics")
		outDir       = flag.String("out", ".bench_out", "directory for results, traces and the daemon's state directories")
		list         = flag.Bool("list", false, "print the workload and metric table as BENCHMARK.json")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		update       = flag.Bool("update-digests", false, "with no -workload: rewrite expected/digests.json from this run (benchmark PRs only)")
	)
	flag.Parse()
	// The host has 2 CPUs: one load-generating goroutine and one worker.
	// Pinned so that a larger host measures the same configuration.
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case *list:
		_, err = os.Stdout.Write(manifest())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var same bool
		if same, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && !same {
			os.Exit(1)
		}
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace != 0, *outDir, *update)
	default:
		err = runAll(*seed, *seconds, *outDir, *update)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's protocol: every metric by name, then the result
// as the last line of standard output.
func runOne(name string, seed int64, seconds float64, traced bool, outDir string, skipExpected bool) error {
	res, err := run(runOpts{workload: name, seed: seed, seconds: seconds, traced: traced,
		sz: fullSizes, outDir: outDir, skipExpected: skipExpected})
	if err != nil {
		return err
	}
	printMetrics(res)
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(res.Failures) == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMetrics lists a run's metrics in table order with the number of
// timed passes behind them.
func printMetrics(res *runResult) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	fmt.Printf("# %s seed=%d sim_digest=%s ops_failed_share=%d/%d\n",
		res.Workload, res.Seed, res.Digest, res.Failed, res.Attempted)
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("%-34s %16s %-6s n=%d\n", d.Name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit, res.Passes)
		}
	}
}

// suiteResult is what the all-workloads mode writes and -compare reads.
type suiteResult struct {
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"run_seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

// runAll re-executes this binary once per workload and mode, so each
// measurement starts from a fresh heap and peak_rss_mb is the workload's
// own, then gathers the result files the children wrote.
func runAll(seed int64, seconds float64, outDir string, update bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := suiteResult{Seed: seed, Seconds: seconds, Workloads: map[string]workloadResult{}}
	failed := false
	for _, w := range workloads {
		var wr workloadResult
		for _, traced := range []bool{false, true} {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", outDir, "-trace", "0"}
			if traced {
				args[len(args)-1] = "1"
			}
			if update {
				args = append(args, "-update-digests")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			b, err := os.ReadFile(resultPath(outDir, w.Name, traced))
			if err != nil {
				return err
			}
			res := new(runResult)
			if err := json.Unmarshal(b, res); err != nil {
				return err
			}
			failed = failed || len(res.Failures) > 0
			if traced {
				wr.PerLayer = res
			} else {
				wr.EndToEnd = res
			}
		}
		if wr.EndToEnd.Digest != wr.PerLayer.Digest {
			failed = true
			fmt.Fprintf(os.Stderr, "benchmark: FAILED: %s: traced sim_digest %s differs from untraced %s\n",
				w.Name, wr.PerLayer.Digest, wr.EndToEnd.Digest)
		}
		all.Workloads[w.Name] = wr
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "benchmark: wrote", path)
	if failed {
		return fmt.Errorf("operations failed; see FAILED lines above")
	}
	if update {
		digests := map[string]string{}
		for name, wr := range all.Workloads {
			digests[name] = wr.EndToEnd.Digest
		}
		return writeDigests(seed, digests)
	}
	return nil
}

// writeDigests rewrites expected/digests.json, relative to the working
// directory `go run -C benchmark` gives the program.
func writeDigests(seed int64, digests map[string]string) error {
	if seed != defaultSeed {
		return fmt.Errorf("-update-digests records the default seed %d only", defaultSeed)
	}
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("expected", "digests.json"), append(b, '\n'), 0o644)
}
