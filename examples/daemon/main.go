// Daemon workflow: the service-layer economics in one runnable demo. A
// synth/serve server is started in-process (what cmd/synthd wraps), the
// Go client compiles the same QAOA circuit twice — cold, then served from
// the shared cache — and a snapshot round-trip shows the cache surviving
// a "restart": the second server's first request is already warm. The
// point is the paper's amortization argument made operational: every
// synthesized sequence is a pure function of (rotation, ε, config), so a
// resident daemon pays for each one exactly once, across requests,
// clients, and restarts.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/circuit/gen"
	"repro/synth/serve"
	"repro/synth/serve/client"
)

func main() {
	qasm := gen.QAOAMaxCut(8, 2, 1).QASM()
	req := serve.CompileRequest{QASM: qasm, Backend: "gridsynth", Eps: 0.3}
	ctx := context.Background()

	// First daemon lifetime: cold cache.
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	cl := client.New(hs.URL)

	cold, err := cl.Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold:  T=%d  unique=%d  hits=%d  misses=%d  wall=%.1fms\n",
		cold.Stats.TCount, cold.Stats.Unique, cold.Stats.Hits, cold.Stats.Misses, cold.Stats.WallMs)

	warm, err := cl.Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm:  T=%d  unique=%d  hits=%d  misses=%d  wall=%.1fms  (%.0fx faster)\n",
		warm.Stats.TCount, warm.Stats.Unique, warm.Stats.Hits, warm.Stats.Misses, warm.Stats.WallMs,
		cold.Stats.WallMs/warm.Stats.WallMs)

	// Graceful "shutdown": flush the snapshot, stop the server.
	snap := filepath.Join(os.TempDir(), "synthd-example-cache.json")
	defer os.Remove(snap)
	if err := srv.Cache().SaveFile(snap); err != nil {
		log.Fatal(err)
	}
	hs.Close()

	// Second lifetime: the new server's cache reloads the snapshot, so the
	// first request of the new process is already warm.
	srv2 := serve.New(serve.Config{})
	n, err := srv2.Cache().LoadFile(snap)
	if err != nil {
		log.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	restarted, err := client.New(hs2.URL).Compile(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restart: reloaded %d sequences; first request: unique=%d hits=%d wall=%.1fms\n",
		n, restarted.Stats.Unique, restarted.Stats.Hits, restarted.Stats.WallMs)
}
