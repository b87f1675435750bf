// Command compile is the circuit front end to the synth pass-pipeline
// API: it reads an OpenQASM 2.0 circuit from a file or stdin, runs a
// configurable pipeline (backend, IR, passes, error budget), and emits the
// lowered Clifford+T circuit as QASM plus a one-line JSON stats record.
//
// Usage:
//
//	compile circuit.qasm                          # default pipeline, auto backend
//	compile -backend trasyn -eps 0.01 circuit.qasm
//	compile -opt 2 circuit.qasm                   # T-count optimizer on
//	cat circuit.qasm | compile -                  # read from stdin
//	compile -ir rz -backend gridsynth -rot-eps 1e-3 circuit.qasm
//	compile -passes transpile,lower circuit.qasm  # custom pass sequence
//	compile -o out.qasm -v circuit.qasm           # QASM to file, progress to stderr
//	compile -remote http://127.0.0.1:8077 circuit.qasm  # compile on a synthd daemon
//
// With -remote the compile runs on a synthd daemon (cmd/synthd) instead of
// in-process, sharing the daemon's warm persistent cache with every other
// client; the same flags configure the request and the output shape is
// identical. -workers and -v stay daemon-side concerns and are ignored.
//
// The lowered QASM goes to stdout (or -o file); the JSON stats line goes
// to stderr (or stdout when -o redirects the QASM), so pipelines can
// split the two streams:
//
//	compile -eps 0.01 in.qasm > out.qasm 2> stats.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/circuit"
	"repro/optimize"
	"repro/synth"
	"repro/synth/serve"
	"repro/synth/serve/client"
	"repro/synth/trace"
)

// stats is the JSON record emitted after a successful compile — the same
// shape serve.CompileStats uses, so local and remote runs are diffable.
type stats = serve.CompileStats

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "compile: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		backend  = flag.String("backend", "auto", "synthesis backend: "+strings.Join(synth.List(), ", "))
		eps      = flag.Float64("eps", 0, "circuit-level error budget ε, split across rotations (0 = per-rotation mode)")
		rotEps   = flag.Float64("rot-eps", 0, "per-rotation epsilon when -eps is 0 (0 = backend default)")
		budget   = flag.String("budget", "uniform", "ε-splitting strategy for -eps: uniform, weighted")
		irFlag   = flag.String("ir", "auto", "lowering IR: auto, u3, rz")
		passes   = flag.String("passes", "", "comma-separated pass list (default: "+strings.Join(synth.PassNames(), ",")+")")
		opt      = flag.Int("opt", 0, "T-count optimizer level: 0 off, 1 pre-lowering rotation folding, 2 also post-lowering Clifford+T peephole")
		fuse2q   = flag.Bool("fuse2q", false, "fuse two-qubit blocks via KAK re-synthesis before transpiling")
		optList  = flag.String("optimizers", "", "comma-separated post-lowering rule chain (implies -opt 2; have: "+strings.Join(optimize.List(), ", ")+")")
		workers  = flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		samples  = flag.Int("samples", 0, "trasyn samples k (0 = default)")
		tbudget  = flag.Int("tbudget", 0, "trasyn per-tensor T budget m (0 = default)")
		seed     = flag.Int64("seed", 1, "base seed for deterministic per-rotation seeding")
		timeout  = flag.Duration("timeout", 0, "whole-compile wall-clock budget (0 = none)")
		outPath  = flag.String("o", "", "write lowered QASM here instead of stdout")
		verbose  = flag.Bool("v", false, "report pass and synthesis progress on stderr")
		remote   = flag.String("remote", "", "compile on a synthd daemon at this base URL instead of in-process")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON profile of this compile here (open in chrome://tracing)")
	)
	flag.Parse()

	src, name, err := readInput(flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}

	// The flags are a compile request: -remote sends it to a daemon, the
	// local path builds its pipeline from it exactly as synthd does.
	req := serve.CompileRequest{
		QASM:       src,
		Backend:    *backend,
		Eps:        *eps,
		RotEps:     *rotEps,
		Budget:     *budget,
		IR:         *irFlag,
		Passes:     splitList(*passes),
		Samples:    *samples,
		TBudget:    *tbudget,
		Seed:       synth.Seed(*seed),
		OptLevel:   *opt,
		Optimizers: splitList(*optList),
		Fuse2Q:     *fuse2q,
		TimeoutMs:  int(*timeout / time.Millisecond),
	}
	// The timeout is forwarded as timeout_ms for a daemon AND enforced
	// here, so a stalled daemon cannot outlive the local budget.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *remote != "" {
		tracer, root := startTrace(*traceOut, "compile.remote")
		res, err := client.New(*remote).Compile(trace.NewContext(ctx, root), req)
		if err != nil {
			fail("remote compile of %s: %v", name, err)
		}
		root.SetAttr("backend", res.Stats.Backend)
		writeTrace(*traceOut, tracer, root)
		if *traceOut != "" && res.Stats.TraceID != "" {
			fmt.Fprintf(os.Stderr, "compile: daemon-side spans: GET %s/debug/trace?id=%s\n",
				strings.TrimRight(*remote, "/"), res.Stats.TraceID)
		}
		emit(res.QASM, res.Stats, *outPath)
		return
	}

	circ, err := circuit.ParseQASM(src)
	if err != nil {
		fail("parsing %s: %v", name, err)
	}
	extra := []synth.Option{synth.WithWorkers(*workers)}
	if *verbose {
		extra = append(extra, synth.WithProgress(func(ev synth.ProgressEvent) {
			if ev.Total == 0 {
				fmt.Fprintf(os.Stderr, "compile: pass %s\n", ev.Pass)
			} else if ev.Done == ev.Total || ev.Done%16 == 0 {
				fmt.Fprintf(os.Stderr, "compile: %s %d/%d\n", ev.Pass, ev.Done, ev.Total)
			}
		}))
	}
	pl, strat, err := req.Pipeline(*backend, extra...)
	if err != nil {
		fail("%v", err)
	}
	tracer, root := startTrace(*traceOut, "compile")
	res, err := pl.Run(trace.NewContext(ctx, root), circ)
	if err != nil {
		fail("compiling %s: %v", name, err)
	}
	root.SetAttr("backend", res.Backend)
	writeTrace(*traceOut, tracer, root)

	emit(res.Circuit.QASM(), serve.NewCompileStats(res, pl.Passes(), *eps, strat), *outPath)
}

// splitList splits a comma-separated flag value into trimmed names (nil
// for an empty value).
func splitList(v string) []string {
	if v == "" {
		return nil
	}
	names := strings.Split(v, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
	}
	return names
}

// startTrace builds the always-sample tracer behind -trace. Without the
// flag both returns are nil, and every span operation downstream no-ops.
func startTrace(path, name string) (*trace.Tracer, *trace.Span) {
	if path == "" {
		return nil, nil
	}
	tracer := trace.New(trace.Config{SampleRatio: 1})
	return tracer, tracer.Start(name)
}

// writeTrace ends the root span and writes the collected trace as Chrome
// trace_event JSON to path (the -trace flag).
func writeTrace(path string, tracer *trace.Tracer, root *trace.Span) {
	if path == "" {
		return
	}
	root.End()
	f, err := os.Create(path)
	if err != nil {
		fail("creating -trace file: %v", err)
	}
	if err := trace.WriteChrome(f, tracer.Collect(root.TraceID())...); err != nil {
		fail("writing -trace file: %v", err)
	}
	if err := f.Close(); err != nil {
		fail("writing -trace file: %v", err)
	}
	fmt.Fprintf(os.Stderr, "compile: trace written to %s (open in chrome://tracing)\n", path)
}

// emit writes the lowered QASM to stdout (or outPath) and the one-line
// JSON stats record to the other stream, so pipelines can split the two.
func emit(qasm string, st stats, outPath string) {
	qasmOut := os.Stdout
	statsOut := io.Writer(os.Stderr)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		qasmOut = f
		statsOut = os.Stdout
	}
	if _, err := io.WriteString(qasmOut, qasm); err != nil {
		fail("writing QASM: %v", err)
	}
	line, err := json.Marshal(st)
	if err != nil {
		fail("encoding stats: %v", err)
	}
	fmt.Fprintln(statsOut, string(line))
}

// readInput resolves the positional argument: a path, "-" or empty for
// stdin.
func readInput(arg string) (src, name string, err error) {
	if arg == "" || arg == "-" {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", "", fmt.Errorf("reading stdin: %w", err)
		}
		return string(b), "stdin", nil
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return "", "", err
	}
	return string(b), arg, nil
}
