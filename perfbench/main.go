// Command perfbench is the repository's benchmark: one seeded workload
// per run, driven only through the system's public package functions,
// printing every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name with its unit and checking that outputs are correct.
//
//	bash perfbench/run.sh --workload city --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it
// repeat the metrics for a reader, together with the seed, GOMAXPROCS
// and the CPU count the run saw. README.md documents the workloads,
// the metrics and which end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run produces: the metrics it measured, its
// operation counts, and the correctness checks that failed (empty when
// the run is correct).
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	// notes are extra human-readable lines (fingerprints, wall times).
	notes []string
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload runs one workload for the given measuring time. traced
// selects the per-layer run instead of the end-to-end run.
type workload func(seed int64, seconds time.Duration, traced bool, sz sizes) (*result, error)

var workloads = map[string]workload{
	"city":   runCity,
	"ingest": runIngest,
	"query":  runQuery,
}

func main() {
	name := flag.String("workload", "", "workload to run: city, ingest or query")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf(
		"input seed; the same seed gives the same inputs (seed %d is held out to confirm a claimed gain)", heldOutSeed))
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload city|ingest|query, -seconds ≥ 1 and -trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1, defaultSizes())
	if err == nil {
		err = complete(res, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("perfbench workload=%s seed=%d trace=%d seconds=%d gomaxprocs=%d nproc=%d\n",
		*name, *seed, *trace, *seconds, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if err := emit(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

// emit prints the human-readable lines and, last, the JSON result.
func emit(w io.Writer, res *result) error {
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "fail_ratio %g (%d failed of %d attempted)\n", ratio, res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
