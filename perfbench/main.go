// Command perfbench is the benchmark of the neusight serving stack. It
// drives the repository's own `neusight serve` binary as a separate
// process with seeded traffic and reports end-to-end metrics, or, with
// --trace 1, replays the same traffic in process with spans around every
// layer and reports per-layer metrics. Every served answer is checked
// against a direct predict.Engine (or plan.EvaluateBatch) answer computed
// from the same model files.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload hot-mix --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh compare set-a.jsonl set-b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var workloads = []string{hotMix, coldMix, planMatrix}

// endToEndMetrics is what every untraced run reports, in BENCHMARK.json's
// order.
var endToEndMetrics = []string{"unloaded_p50_ms", "unloaded_p90_ms", "capacity_per_s", "cpu_us_per_op", "rss_mb", "setup_s"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the generated requests and arrival times")
	seconds := fs.Int("seconds", 30, "measurement time per workload, in seconds")
	trace := fs.Int("trace", 0, "1 replays the workload in process with spans and reports per-layer metrics")
	bin := fs.String("bin", "", "the neusight binary to drive")
	buildDir := fs.String("build", ".bench_build", "directory for the trained model and span files")
	fs.Parse(os.Args[1:])
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, name := range names {
		if !contains(workloads, name) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", name, strings.Join(workloads, ", "))
			os.Exit(2)
		}
	}
	// The client shares the box with the server; a lazier collector keeps
	// its GC pauses out of the latencies it records.
	debug.SetGCPercent(400)
	files, err := prepareModel(filepath.Join(*buildDir, "model"))
	if err != nil {
		fatal(err)
	}
	eng, err := loadEngine(files)
	if err != nil {
		fatal(err)
	}
	total := &run{trace: *trace == 1}
	for _, name := range names {
		fmt.Printf("== %s (seed %d, %ds, trace %d)\n", name, *seed, *seconds, *trace)
		b := &bench{workload: name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			bin: *bin, files: files, eng: eng, out: &run{trace: *trace == 1}, spanDir: filepath.Join(*buildDir, "spans")}
		ctx := context.Background()
		if name == planMatrix {
			err = b.runPlan(ctx)
		} else {
			err = b.runServing(ctx)
		}
		b.out.print()
		if err == nil {
			err = b.out.complete()
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		total.merge(name, b.out, len(names) > 1)
	}
	line, err := json.Marshal(total.result())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line is one human-readable metric line: value, unit and sample count.
type line struct {
	name  string
	value float64
	unit  string
	n     int
	kind  string // "end-to-end", "per-layer" or "info"
}

// run collects one workload's operations, failures and metrics. With
// trace set, the per-layer metrics go into the result line; otherwise the
// end-to-end ones do. Every metric is printed either way.
type run struct {
	trace             bool
	attempted, failed int
	problems          []string
	lines             []line
	metrics           map[string]metric
}

func (r *run) add(l line, reported bool) {
	r.lines = append(r.lines, l)
	if reported {
		if r.metrics == nil {
			r.metrics = map[string]metric{}
		}
		r.metrics[l.name] = metric{Value: l.value, Unit: l.unit}
	}
}

// set records an end-to-end metric with its sample count.
func (r *run) set(name string, v float64, unit string, n int) {
	r.add(line{name, v, unit, n, "end-to-end"}, !r.trace)
}

// setLayer records a per-layer metric of layerMetrics with its sample
// count.
func (r *run) setLayer(name string, v float64, n int) {
	for _, m := range layerMetrics {
		if m.Name == name {
			r.add(line{name, v, m.Unit, n, "per-layer"}, r.trace)
			return
		}
	}
	panic("perfbench: per-layer metric " + name + " is not in layerMetrics")
}

// info records a printed-only figure.
func (r *run) info(name string, v float64, unit string, n int) {
	r.add(line{name, v, unit, n, "info"}, false)
}

// phase folds one open-loop phase's operations into the run.
func (r *run) phase(p *phase) {
	r.attempted += p.due
	r.failed += p.failed
	r.problems = append(r.problems, p.errs...)
}

// fail records a failed check as a failed operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// complete checks that the run reports every metric its mode promises.
func (r *run) complete() error {
	names := endToEndMetrics
	if r.trace {
		names = nil
		for _, m := range layerMetrics {
			names = append(names, m.Name)
		}
	}
	for _, name := range names {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("no value for metric %s", name)
		}
	}
	return nil
}

func (r *run) print() {
	for _, l := range r.lines {
		fmt.Printf("  %-34s %14.6g %-6s n=%-7d %s\n", l.name, l.value, l.unit, l.n, l.kind)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-34s %14.6g %-6s n=%-7d\n", "failed_share", share, "ratio", r.attempted)
	for i, p := range r.problems {
		if i == 10 {
			fmt.Printf("  ... %d more failures\n", len(r.problems)-i)
			break
		}
		fmt.Println("  FAILED:", p)
	}
}

// merge folds one workload's run into a combined one; prefix names the
// metrics by workload when several workloads run in one invocation.
func (r *run) merge(workload string, o *run, prefix bool) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	for name, m := range o.metrics {
		if prefix {
			name = workload + "/" + name
		}
		r.metrics[name] = m
	}
}

func (r *run) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
