// Command bench is the repository's end-to-end benchmark. It runs four
// workloads, checks every output against inputs it built itself, and
// prints every metric by name and unit. BENCHMARK.json at the repository
// root lists the workloads and the metrics, with each end-to-end metric's
// direction and regression bound; a performance claim in this repository
// is a comparison of two sets of runs of this command.
//
// The benchmark is a Go module of its own that imports the repository
// through a replace directive, so `go test ./...` at the root neither
// builds nor tests it: its tests run with `go test .` inside cmd/bench.
//
// # Running
//
// From the repository root:
//
//	bash cmd/bench/run.sh --workload u3_single --seed 1 --seconds 25 --trace 0
//	bash cmd/bench/run.sh -seed 1 -out run.json
//	bash cmd/bench/run.sh -compare base.json change.json
//
// run.sh builds the benchmark, keeping every build artefact (Go's build
// cache included) under .bench_build, then runs it. Inside cmd/bench,
// `go run . <flags>` and `go test ./...` work as usual; the tests run
// every workload at token size in a few seconds.
//
// With -workload, one workload runs in this process for -seconds of
// measured time. It prints the machine stanza (commit, nproc, GOMAXPROCS,
// Go version), diagnostics, `outputs_sha <hex>`, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric for -trace 0, every per-layer metric for -trace 1.
// Without -workload, every workload runs untraced and then traced, each
// in a fresh child process re-executing this binary, so no heap, table or
// cache carries over (under four minutes); -out appends the run, machine
// stanza included, to a JSON array. The default seed is 1; seed 2 is held
// out for verifying a claim made on seed 1.
//
// Every workload's inputs are a quality corpus and then timed inputs from
// -seed. The corpus is fixed — drawn at qualitySeed, whatever -seed says —
// and every run completes it, even past its measured time; its outputs
// give t_per_rotation and outputs_sha, which therefore read the same in
// every run of the same code. The timed inputs beyond it vary with the
// seed, so no latency is tuned to one draw.
//
// # Workloads
//
// u3_single — the paper's headline comparison as single-request latency.
// Haar-random U3 targets, one at a time (closed loop, one caller), through
// synth.Lookup("trasyn") with the default Request at ε = 5e-2: the 128
// targets of the corpus, then draws from the seed. gridsynth's three-Rz
// U3 runs on the corpus as an untimed reference. Work in trasyn's layers
// (internal/core, mps, tensor, gates) shows here; no cache, pass or HTTP
// is involved. Below 5e-2 trasyn returns some targets outside ε as
// successes (about a fifth at 1e-2, one in a few hundred at 2e-2), which
// would fail runs at random; at 5e-2 every target is met, nearly all by
// the two-tensor attempt, so a run times hundreds of like ops. Draws
// within 2ε of the identity are skipped: trasyn answers those with the
// empty sequence, which the backend reports as a failure.
//
// qaoa_auto — QAOAMaxCut(6, 1, s) through NewPipelineFor("auto",
// WithCircuitEpsilon(0.3)), a fresh pipeline (cold cache) per circuit,
// GOMAXPROCS workers, one circuit at a time: circuit k at s = qualitySeed+k
// for the 16 of the corpus, then at s = seed+k. auto is synthd's default
// backend: trasyn and gridsynth race on every rotation and every core is
// busy, so a change that speeds one trasyn op by using more cores must
// show here that it costs no throughput, and race waste shows. One layer
// on six qubits puts
// each rotation's share of the budget near 2e-2, trasyn's three-tensor
// attempt, and keeps a compile under a second, so a run covers a few
// dozen circuits.
//
// circuits_gridsynth — QAOAMaxCut(12,3,s), QFT(8), VQEAnsatz(8,4,s),
// RandomSU4Blocks(6,12,s), GHZWithRotations(10,s), RandomCircuit(8,20,s)
// and CuccaroAdder(4), compiled in laps through NewPipelineFor("gridsynth",
// WithCircuitEpsilon(1e-3), WithOptimize(2)), a fresh pipeline per compile.
// The random circuit has 20 layers, not 40: at 20 it is already the
// largest program, over half of each lap. Lap 0, the corpus, draws the
// seeded families at qualitySeed and lap k ≥ 1 at s = seed + 1000k, so a
// program's median covers many draws. The compiler path
// without trasyn: transpile, the optimize passes, and gridsynth's number
// theory (grid, dioph, exact, ring) at per-rotation ε of 1e-5 to 1e-6. For
// a trasyn change the prediction is no movement.
//
// serve_mix — a two-node synthd cluster in this process (serve.New over
// cluster.New on loopback listeners) driven by one open-loop generator at
// 1000 requests/s, alternating nodes, one connection per node. A request
// is 8 Rz rotations through gridsynth at ε = 1e-4; nine in ten draw from a
// 64-angle hot pool (cache hits), every tenth carries 8 fresh angles (a
// miss, a peer lookup, a synthesis, an insert and an owner push). The
// corpus is 128 further angles sent through the nodes in turn after the
// timed phases, untimed. It measures the serving layers — admission, JSON,
// the sharded cache, the peer hop — with synthesis mostly bypassed; reads
// and writes share one stream and weigh equally in the latency, so a
// change that helps hits but costs misses shows. Each request is timed
// from when it was due; each class's tail and the generator's lateness
// are printed.
//
// # End-to-end metrics
//
//   - setup_s: set-up — the enumeration tables, the inputs, and for
//     serve_mix the cluster start and the warm lap — each step repeated
//     from a clean heap, the medians summed.
//   - latency_ms_p50: the median op latency (a trasyn call, a compile, a
//     request). Where ops fall into classes of very different cost it is
//     the geometric mean over classes of each one's median: over programs
//     for circuits_gridsynth, whose programs differ a hundredfold in size,
//     and over reads and writes for serve_mix, whose median request is
//     always a read. The tail the sample count supports (the highest of
//     p75, p90, p95, p99, p99.9 with at least ten samples beyond it) is
//     printed.
//   - t_per_rotation: T gates per synthesized rotation over the quality
//     corpus — exact, the same in every run of the same code.
//   - heap_live_mb: the live heap after a full collection at the end of
//     the measured time — what the program holds on to.
//
// Closed-loop times are normalized to the host's speed, as probe.go
// explains: on a shared host whose speed swings by 2x and more, raw
// medians of the same code spread by up to a fifth from run to run.
// serve_mix's request latency is not. Every latency median is then
// scaled by one minus the share of busy CPU time the hypervisor stole
// during the measured window.
//
// # Per-layer metrics
//
// A traced run splits its time between an untraced phase and a traced
// one (serve_mix: 30% each, then a rate ladder). Span metrics come from
// the traced phase, read through synth/trace: the benchmark opens a root
// span around each call it makes and passes it down with
// trace.NewContext. serve_mix splits each request's client side into
// spans from net/http's httptrace hooks — client.encode, http.conn_wait,
// http.exchange, client.decode — and its client propagates traceparent,
// so the nodes' fragments are collected from their tracers and grafted
// under the exchange by time containment. Self time is a span's duration
// minus the union of its children's intervals; each span name's count,
// total, self time and share of the roots' wall is printed. Metrics of a
// layer a workload never reaches read 0.
//
//   - runtime: gc.cycles, gc.pause_ms_total.
//   - tracing: trace.coverage, the share of the roots' wall their children
//     cover (for u3_single, the replay's stage spans over the op);
//     trace.overhead_share, the traced median op over the untraced one,
//     minus one.
//   - gates: gates.table_build_ms, which moves setup_s.
//   - compiler: synth.unique_per_op, synth.ops_per_s.
//   - gridsynth: gridsynth.ms_p50 per call, and from the gridsynth.k spans
//     gridsynth.k_per_rz and gridsynth.admitted_per_rz; these move
//     circuits_gridsynth's latency.
//   - trasyn: trasyn.evals_per_op, trasyn.evals_per_s,
//     trasyn.t_ratio_vs_gridsynth, and the stage shares
//     trasyn.{collect,mps_build,sample,rewrite}_share; these move
//     u3_single's latency and qaoa_auto's. trasyn emits no spans below the
//     backend, so the traced u3_single phase replays Algorithm 1 through
//     the public stage functions (Table.Collect, mps.Build, Beam or
//     SampleBestTail, core.Rewrite) under the benchmark's own spans, and
//     checks that the replay emits exactly the backend's sequence. The
//     glue between those stages — core.TRASYN's outer loop and core's
//     unexported synthesizeOnce and topByTrace — is copied into u3.go: a
//     known duplication of Algorithm 1, kept in step with core only by
//     that check, to delete once trasyn emits its own stage spans
//     (ROADMAP item 2a).
//   - auto race: race.trasyn_win_share, race.loser_cpu_share (the losers'
//     wall over compile wall), from WithSynthObserver; these move
//     qaoa_auto's latency.
//   - passes: pass.{transpile,lower,optct,other}_share, opt.t_saved,
//     opt.iterations, from PipelineResult.Stats.
//   - serve: serve.{queue_wait,service,overhead}_share of request latency,
//     from the responses' queue_wait_ms and service_ms; the overhead split
//     by the client spans into serve.conn_wait_share (waiting for the one
//     connection), serve.http_share (the exchange's self time: loopback and
//     HTTP outside the handler) and serve.codec_share (client encode and
//     decode); and serve.max_rps: the highest rung of 1250/1500/1750/2000
//     req/s whose p99 stays within 20 ms with no failure (a growing
//     backlog fails a rung through its latency). These move serve_mix's
//     latency.
//   - cluster and cache: cluster.{peer_hits,peer_misses,peer_errors,
//     pushes,push_errors} from Node.Stats, cluster.peer_lookup_share from
//     the spans, cache.hit_rate and cache.size from Cache().Stats.
//
// # Checking outputs
//
// Every output is checked against a target the benchmark rebuilt from its
// own inputs, never against the error the program reports: sequences are
// multiplied out (Seq.Matrix) and compared with qmat.Distance;
// serve_mix's answers are parsed with gates.Parse, de-duplicated, and
// checked after the timed phases so checking adds no load; lowered
// circuits run against their input in internal/sim on a seeded random
// state, must stay within their reported error bound, and the bound
// within the circuit's budget. Errors, non-200 responses, contained
// per-rotation failures and failed checks count as failed ops; a failed
// check, or an input answered or lowered two different ways, makes the
// run incorrect. outputs_sha is a sha256 over the quality corpus's
// sequences or lowered QASM; every run of the same code prints the same.
//
// # Comparing
//
// bench -compare base.json change.json takes two -out files, runs of the
// parent and of the change at the same seed and settings, and prints one
// row per workload and end-to-end metric: each side's median and
// quartiles, and a verdict under the metric's bound — worse, unresolved
// (the parent's own spread exceeds the bound), improved (with at least ten
// pairs, run i of each side, the change wins nine in ten and the medians
// differ by more than the parent's quartile distance) or unchanged. A
// metric that reads the same in every run on each side, t_per_rotation,
// has no noise to allow for: any difference is worse or improved. It then
// says whether outputs_sha matched across every run, and lists the
// per-layer medians side by side. Alternate which side runs first.
//
// baseline.json holds the calibration the bounds came from: each
// workload's medians, quartiles and spreads over runs of different seeds
// and of one seed, its outputs_sha, and the machine stanza.
//
// # Out of scope
//
// Deleting the older harnesses (cmd/synthprof, cmd/cachebench,
// cmd/optbench, cmd/mqbench, synthload's BENCH file writer) and their
// BENCH_*.json files; GOMAXPROCS=1 ladders; spans inside trasyn; fixing
// trasyn's ε misses below 5e-2, its empty answer near the identity, and
// gridsynth's "no solution within MaxK" on RandomCircuit(8,40,·) at
// ε = 1e-4.
package main
