// Command o2perf is the O2 benchmark. It runs one named workload for a
// fixed time on inputs drawn from a seed, checks every verdict against an
// oracle that does not come from the code under test, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	o2perf --workload corpus-stream --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs in untraced and traced phases, and the metrics are the
// per-layer ones (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// benchWorkload is one benchmark workload: run builds its inputs from
// the seed, measures for the given time and returns the outcome. README.md
// says why each workload exists.
type benchWorkload struct {
	name string
	run  func(seed int64, d time.Duration, trace bool) (*outcome, error)
}

var workloads = []benchWorkload{
	{"corpus-stream", runCorpusStream},
	{"preset-analyze", runPresetAnalyze},
	{"serve-mixed", runServeMixed},
}

// outcome is one run's result: the verdict counts and the metrics.
type outcome struct {
	attempted     int
	failed        int // analyses that returned an error
	wrongVerdicts int // completed analyses whose output fails the oracle
	metrics       metrics
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("o2perf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: corpus-stream, preset-analyze, serve-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "o2perf: unknown workload %q or bad flags\n", *name)
		return 2
	}
	fmt.Println(envLine(*seed))
	steal0, total0, stealOK := cpuSteal()
	out, err := w.run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2perf:", err)
		return 1
	}
	// The share of CPU time the hypervisor gave to other guests during the
	// run: a run with a high share is slow for reasons outside the code.
	if steal1, total1, ok := cpuSteal(); ok && stealOK && total1 > total0 {
		fmt.Printf("host steal_share %.4f\n", float64(steal1-steal0)/float64(total1-total0))
	}
	if err := out.metrics.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "o2perf:", err)
		return 1
	}
	printResult(os.Stdout, out)
	return 0
}

// printResult prints every metric as a "metric <name> <value> <unit>"
// line, then the verdict counts, then the result object as the last line.
func printResult(f *os.File, out *outcome) {
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "metric %s %v %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	errorShare := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(f, "metric error_share %v share\n", errorShare)
	fmt.Fprintf(f, "metric wrong_verdicts %d count\n", out.wrongVerdicts)
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.wrongVerdicts == 0 && out.failed == 0, out.attempted, out.failed, out.metrics}
	b, _ := json.Marshal(res) // plain structs and maps of floats always marshal
	fmt.Fprintln(f, string(b))
}
