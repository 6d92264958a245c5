// Command benchmark is the repo's one benchmark (see README.md in this
// directory and BENCHMARK.json at the repo root).
//
//	go run ./benchmark                       untraced pass, all workloads → benchmark/out/result.json
//	go run ./benchmark -trace 1              traced pass → result-trace.json, trace-<workload>.json
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -workload relay -seed 7 -seconds 20 -trace 0
//
// The last form is what the driver runs: one workload in this process, one
// JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process and print its result as the last line")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", runSeconds, "measuring time; repetitions and the paced run's length scale with it")
		trace   = flag.Int("trace", 0, "1 = traced pass (per-layer metrics, spans), 0 = untraced pass (end-to-end metrics)")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for result and trace files")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		runs    = flag.Int("runs", 1, "without -workload: runs per workload, each with its own seed; the result file holds each metric's median")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *runs, *trace == 1, *outDir, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, runs int, traced bool, outDir string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(args[0], args[1], os.Stdout)
	}
	if seconds < 1 || runs < 1 {
		return fmt.Errorf("-seconds and -runs must be at least 1")
	}
	if goruntime.GOMAXPROCS(0) > goruntime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS %d exceeds the host's %d CPUs: the numbers would measure oversubscription", goruntime.GOMAXPROCS(0), goruntime.NumCPU())
	}
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		var o *outcome
		var err error
		if traced {
			o, err = w.runTraced(seed, w.size.scaled(seconds), outDir)
		} else {
			o, err = w.runUntraced(seed, w.size.scaled(seconds))
		}
		if err != nil {
			return err
		}
		printOutcome(os.Stdout, name, o)
		line, err := json.Marshal(o)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	return runAll(seed, seconds, runs, traced, outDir)
}

// printOutcome prints every metric by name with its unit.
func printOutcome(out *os.File, name string, o *outcome) {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "workload %s: correct=%v attempted=%d failed=%d\n", name, o.Correct, o.Attempted, o.Failed)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
}

// medianOutcome merges the runs of one workload: counts add up, each metric
// is its median over the runs.
func medianOutcome(runs []*outcome) *outcome {
	m := &outcome{Correct: true, Metrics: map[string]metric{}}
	for _, o := range runs {
		m.Correct = m.Correct && o.Correct
		m.Attempted += o.Attempted
		m.Failed += o.Failed
	}
	for name, first := range runs[0].Metrics {
		vals := make([]float64, len(runs))
		for i, o := range runs {
			vals[i] = o.Metrics[name].Value
		}
		m.Metrics[name] = metric{Value: median(vals), Unit: first.Unit}
	}
	return m
}

// envInfo identifies where a result file was measured.
type envInfo struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Kernel     string `json:"kernel"`
}

func readEnv() envInfo {
	env := envInfo{Commit: "unknown", Go: goruntime.Version(), GOMAXPROCS: goruntime.GOMAXPROCS(0), NProc: goruntime.NumCPU(), Kernel: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}

// sizeInfo records the frozen sizes a result was measured at.
type sizeInfo struct {
	Mapping  string  `json:"mapping"`
	Procs    int     `json:"processes"`
	Shards   int     `json:"shards"`
	Batch    int     `json:"batch_events"`
	Reps     int     `json:"batch_reps"`
	Rate     float64 `json:"paced_rate_per_s"`
	PacedSec float64 `json:"paced_seconds"`
	Segments int     `json:"paced_segments"`
}

// resultFile is the schema of benchmark/out/result*.json.
type resultFile struct {
	Env       envInfo             `json:"env"`
	Seed      int64               `json:"seed"`
	Runs      int                 `json:"runs"`
	Seconds   int                 `json:"seconds"`
	Traced    bool                `json:"traced"`
	Loadavg1  float64             `json:"bench.loadavg1"`
	Sizes     map[string]sizeInfo `json:"sizes"`
	Workloads map[string]*outcome `json:"workloads"`
}

// runAll runs one pass over every workload, each run in a fresh child
// process so no workload inherits another's heap, and writes the result
// file. With runs > 1 a workload's result is the median of each metric over
// its runs, which is what the driver compares too: on a shared host a single
// run can sit 30% off for reasons that are not the program's.
func runAll(seed int64, seconds, runs int, traced bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Checked once, here: the children's own work raises the load average.
	load := loadavg1()
	if load > 0.5*float64(goruntime.NumCPU()) {
		fmt.Fprintf(os.Stderr, "benchmark: warning: 1-minute load %.2f is above half of %d CPUs; results will be noisy\n", load, goruntime.NumCPU())
	}
	rf := resultFile{Env: readEnv(), Seed: seed, Runs: runs, Seconds: seconds, Traced: traced, Loadavg1: load,
		Sizes: map[string]sizeInfo{}, Workloads: map[string]*outcome{}}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	for _, w := range workloads {
		size := w.size.scaled(seconds)
		if traced {
			size.reps, size.pacedSec, size.pacedSegs = 1, size.tracedPacedSec, 1
		}
		rf.Sizes[w.name] = sizeInfo{Mapping: w.mapping, Procs: w.procs, Shards: w.shards, Batch: size.batch, Reps: size.reps, Rate: size.rate, PacedSec: size.pacedSec, Segments: size.pacedSegs}
		var outcomes []*outcome
		for r := 0; r < runs; r++ {
			// Seeds 1000 apart: a run's repetitions use seed, seed+1, ...
			runSeed := fmt.Sprint(seed + int64(r)*1000)
			cmd := exec.Command(self, "-workload", w.name, "-seed", runSeed, "-seconds", fmt.Sprint(seconds), "-trace", traceArg, "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("workload %s: %w", w.name, err)
			}
			text := strings.TrimRight(string(out), "\n")
			last := text[strings.LastIndexByte(text, '\n')+1:]
			fmt.Println(strings.TrimSuffix(text, last))
			o := &outcome{}
			if err := json.Unmarshal([]byte(last), o); err != nil {
				return fmt.Errorf("workload %s: result line: %w", w.name, err)
			}
			outcomes = append(outcomes, o)
		}
		rf.Workloads[w.name] = medianOutcome(outcomes)
	}
	file := "result.json"
	if traced {
		file = "result-trace.json"
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, file)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, o := range rf.Workloads {
		if !o.Correct {
			return fmt.Errorf("a workload failed its correctness check (see %s)", path)
		}
	}
	return nil
}
