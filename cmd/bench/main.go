package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process and print its result line (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "input seed; 2 is held out for verifying claims")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = untraced run reporting the end-to-end metrics")
		out      = flag.String("out", "", "with every workload: append the run (machine stanza included) to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare base.json change.json")
	)
	flag.Parse()
	if err := dispatch(*workload, *seed, *seconds, *traced, *out, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(workload string, seed int64, seconds float64, traced int, out string, compare bool) error {
	specPath, err := findSpec()
	if err != nil {
		return err
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two files: base.json change.json")
		}
		return compareRuns(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", traced)
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		trace:   traced == 1,
	}
	if workload != "" {
		return runOne(ctx, os.Stdout, sp, workload, cfg)
	}
	return runAll(ctx, sp, cfg, out)
}

// runOne runs one workload in this process and prints its diagnostics, the
// outputs fingerprint and, as the last line, the result object.
func runOne(ctx context.Context, w io.Writer, sp *spec, name string, cfg runConfig) error {
	res, sha, err := measure(ctx, w, sp, name, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "outputs_sha %s\n", sha)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// measure runs workload name under cfg and shapes its outcome into the
// result object: every end-to-end metric of the spec for an untraced run,
// every per-layer metric for a traced one.
func measure(ctx context.Context, w io.Writer, sp *spec, name string, cfg runConfig) (*result, string, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, "", fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	m := currentMachine()
	mj, _ := json.Marshal(m)
	fmt.Fprintf(w, "machine %s\n", mj)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	r := &run{runConfig: cfg, out: w, values: map[string]float64{}}
	if err := fn(ctx, r); err != nil {
		return nil, "", fmt.Errorf("%s: %w", name, err)
	}
	list := sp.EndToEnd
	if cfg.trace {
		list = sp.PerLayer
	}
	res := &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	if res.Attempted < 1 {
		return nil, "", fmt.Errorf("%s: no operation attempted", name)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	for _, ms := range list {
		v, ok := r.value(ms.Name)
		if !ok {
			return nil, "", fmt.Errorf("%s does not produce metric %s", name, ms.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, "", fmt.Errorf("%s: metric %s is %v", name, ms.Name, v)
		}
		res.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", ms.Name, v, ms.Unit)
	}
	return res, r.outputsSHA, nil
}

// result is the object the benchmark prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDoc is one -out record: every workload, untraced and traced, at one
// seed on one machine.
type runDoc struct {
	Machine   machine       `json:"machine"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Workloads []workloadRun `json:"workloads"`
}

type workloadRun struct {
	Workload   string  `json:"workload"`
	Trace      int     `json:"trace"`
	OutputsSHA string  `json:"outputs_sha"`
	Result     *result `json:"result"`
}

// runAll runs every workload of the spec, untraced and then traced, each in
// a fresh child process re-executing this binary, so no heap, table or
// cache carries over from one workload to the next.
func runAll(ctx context.Context, sp *spec, cfg runConfig, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := runDoc{Machine: currentMachine(), Seed: cfg.seed, Seconds: cfg.seconds.Seconds()}
	for _, wl := range sp.Workloads {
		for _, tr := range []int{0, 1} {
			args := []string{
				"-workload", wl.Name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds.Seconds()), "-trace", fmt.Sprint(tr),
			}
			res, sha, err := runChild(ctx, self, args)
			if err != nil {
				return fmt.Errorf("%s (trace %d): %w", wl.Name, tr, err)
			}
			doc.Workloads = append(doc.Workloads, workloadRun{Workload: wl.Name, Trace: tr, OutputsSHA: sha, Result: res})
		}
	}
	printSummary(os.Stdout, sp, doc)
	if out == "" {
		return nil
	}
	return appendRun(out, doc)
}

// runChild runs one child, echoing its output, and parses the result line
// it ends with and the fingerprint line before it.
func runChild(ctx context.Context, self string, args []string) (*result, string, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, "", err
	}
	var sha, last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if s, ok := strings.CutPrefix(last, "outputs_sha "); ok {
			sha = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, "", fmt.Errorf("parsing result line %q: %w", last, err)
	}
	return &res, sha, nil
}

func printSummary(w io.Writer, sp *spec, doc runDoc) {
	fmt.Fprintf(w, "\n%-20s %-5s %-8s %-9s %s\n", "workload", "trace", "correct", "failed", "outputs_sha")
	for _, wr := range doc.Workloads {
		fmt.Fprintf(w, "%-20s %-5d %-8t %4d/%-4d %s\n", wr.Workload, wr.Trace, wr.Result.Correct,
			wr.Result.Failed, wr.Result.Attempted, wr.OutputsSHA)
	}
	fmt.Fprintf(w, "\n%-32s", "end-to-end metric")
	for _, wl := range sp.Workloads {
		fmt.Fprintf(w, " %18s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, ms := range sp.EndToEnd {
		fmt.Fprintf(w, "%-32s", ms.Name+" ("+ms.Unit+")")
		for _, wl := range sp.Workloads {
			v := math.NaN()
			for _, wr := range doc.Workloads {
				if wr.Workload == wl.Name && wr.Trace == 0 {
					v = wr.Result.Metrics[ms.Name].Value
				}
			}
			fmt.Fprintf(w, " %18.6g", v)
		}
		fmt.Fprintln(w)
	}
}

// appendRun adds doc to the JSON array in path, creating the file if needed.
func appendRun(path string, doc runDoc) error {
	docs, err := readRuns(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	docs = append(docs, doc)
	b, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRuns(path string) ([]runDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var docs []runDoc
	if err := json.Unmarshal(b, &docs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return docs, nil
}

// machine is the stanza every run records, so a number is never read
// without the host and build that produced it.
type machine struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified,omitempty"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentMachine() machine {
	m := machine{
		Commit:     "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// spec is BENCHMARK.json: the workloads, and the metrics with their units,
// directions and regression bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if sp.RunSeconds <= 0 || len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: needs run_seconds, workloads and end_to_end", path)
	}
	return &sp, nil
}

// findSpec looks for BENCHMARK.json in the working directory and its
// parents: the benchmark runs from the repository root, `go run .` and
// `go test` from cmd/bench.
func findSpec() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or its parents")
		}
		dir = parent
	}
}
