package serve_test

import (
	"bufio"
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/circuit/gen"
	"repro/synth/serve"
	"repro/synth/serve/client"
)

// daemon is one running synthd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon builds nothing — the binary is shared per test run — and
// boots synthd on a random port, parsing the listen line from stdout.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	return startDaemonStderr(t, bin, os.Stderr, args...)
}

// startDaemonStderr is startDaemon with the subprocess's stderr routed
// to an arbitrary writer, for tests that assert on the daemon's logs.
func startDaemonStderr(t *testing.T, bin string, stderr io.Writer, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "listening on ") {
				lines <- strings.TrimSpace(line[strings.Index(line, "http://"):])
				return
			}
		}
		close(lines)
	}()
	select {
	case base, ok := <-lines:
		if !ok {
			cmd.Process.Kill()
			t.Fatal("synthd exited without printing a listen address")
		}
		d := &daemon{cmd: cmd, base: base}
		t.Cleanup(func() { d.kill() })
		return d
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("synthd did not print a listen address in time")
		return nil
	}
}

// stop sends SIGTERM and waits for a clean exit (the graceful path that
// flushes the snapshot).
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("synthd exited uncleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		d.kill()
		t.Fatal("synthd did not exit within the drain budget")
	}
}

func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

// TestSynthdEndToEnd is the CI smoke: build the real daemon, drive it
// over HTTP with the Go client using the QAOA example circuit, and prove
// the service-layer economics — warm-cache hits within a daemon lifetime,
// and a snapshot that survives a graceful restart so the first
// post-restart request is already warm.
func TestSynthdEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the synthd binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "synthd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/synthd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building synthd: %v\n%s", err, out)
	}
	snap := filepath.Join(dir, "cache.json")
	qasm := gen.QAOAMaxCut(6, 1, 1).QASM()
	req := serve.CompileRequest{QASM: qasm, Backend: "gridsynth", Eps: 0.5}
	ctx := context.Background()

	d := startDaemon(t, bin, "-backend", "gridsynth", "-snapshot", snap)
	cl := client.New(d.base)

	if h, err := cl.Health(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}

	cold, err := cl.Compile(ctx, req)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	if !strings.Contains(cold.QASM, "OPENQASM") || cold.Stats.TCount == 0 {
		t.Fatalf("cold compile produced an implausible circuit: %+v", cold.Stats)
	}
	if cold.Stats.Misses == 0 {
		t.Fatalf("cold compile reported no misses: %+v", cold.Stats)
	}

	warm, err := cl.Compile(ctx, req)
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	if warm.Stats.Hits == 0 {
		t.Fatalf("second identical compile reported no cache hits: %+v", warm.Stats)
	}
	if warm.QASM != cold.QASM {
		t.Fatal("warm compile produced a different circuit")
	}
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "synthd_cache_hits_total") {
		t.Fatalf("metrics missing cache counters:\n%s", metrics)
	}

	// Graceful shutdown flushes the snapshot…
	d.stop(t)
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot not flushed on shutdown: %v", err)
	}

	// …and a restarted daemon serves its first request from the reloaded
	// persistent cache.
	d2 := startDaemon(t, bin, "-backend", "gridsynth", "-snapshot", snap)
	cl2 := client.New(d2.base)
	reloaded, err := cl2.Compile(ctx, req)
	if err != nil {
		t.Fatalf("post-restart compile: %v", err)
	}
	if reloaded.Stats.Hits == 0 || reloaded.Stats.Unique != 0 {
		t.Fatalf("first post-restart compile missed the reloaded cache: %+v", reloaded.Stats)
	}
	if reloaded.QASM != cold.QASM {
		t.Fatal("post-restart compile produced a different circuit")
	}

	// The batch endpoint shares the same resident cache.
	sy, err := cl2.Synthesize(ctx, serve.SynthesizeRequest{
		Backend: "gridsynth",
		Eps:     1e-2,
		Rotations: []serve.Rotation{
			{Gate: "rz", Params: [3]float64{0.377}},
			{Gate: "rz", Params: [3]float64{0.377}},
		},
	})
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if len(sy.Results) != 2 || sy.Results[0].Seq == "" || sy.Hits != 1 {
		t.Fatalf("synthesize batch: %+v", sy)
	}
	d2.stop(t)
}
