// Package repro is a from-scratch Go reproduction of "Automatically
// Patching Errors in Deployed Software" (Perkins et al., SOSP 2009) — the
// ClearView system: learning invariants from normal executions of a
// stripped binary, detecting failures with monitors, identifying
// invariants whose violation correlates with a failure, generating
// candidate repair patches that enforce them, and evaluating the patches
// on continued executions, coordinated across an application community.
//
// The root package carries the module documentation and the benchmark
// harness (bench_test.go) that regenerates every table and figure of the
// paper's evaluation; the implementation lives under internal/:
//
//	internal/isa        the simulated x86-flavoured instruction set
//	internal/asm        two-pass assembler
//	internal/image      stripped binary image format
//	internal/mem        paged memory + canary-guarded heap allocator
//	internal/vm         managed execution environment (code cache, patches)
//
// The two packages on the interpreter's critical path are engineered for
// deployment-grade throughput, since ClearView's whole premise is
// detection and repair *in production*:
//
// internal/mem's hierarchy is page table → TLB → COW. Addresses resolve
// through a flat two-level page table (a fixed top-level array of
// page-group pointers — two array indexings, no map operations), fronted
// by a small direct-mapped software TLB of recent (page → frame,
// writable) translations that the 8/32-bit accessors check first. A page
// group holds its frames as *[PageSize]byte and their copy-on-write state
// as a bit set; a write to a shared page privatizes just that page. Every event that
// could make a cached translation lie — Clone resharing pages, a COW
// break swapping a frame, UnmarshalBinary replacing the table — flushes
// or rewrites the TLB (property-tested against the original map-backed
// implementation, kept as a test oracle). Bulk paths (ReadBytes,
// WriteBytes, the COPYB instruction) translate once per page run and
// memmove, preserving interrupted-copy partial progress, per-byte step
// accounting, and rep-movsb overlap replication bit-for-bit.
//
// internal/vm has one interpreter loop, vm.Run, over a block-linked code
// cache. Blocks share their instructions with every machine of the image
// through the image's decode table, once guest memory is checked to
// still hold the image's code bytes, so a fresh machine pays only for the
// blocks it runs. Each code-cache block caches its resolved successor
// *Block pointers, so straight-line and direct-branch dispatch skips the cache
// map; links carry a cache generation that a patch flush (a walk of the
// cache) bumps, invalidating all links at once. Within a block, each instruction
// runs its hook chain (if any) on one reusable Ctx and then executes from
// a single opcode switch, so plain and instrumented runs alike allocate
// nothing per instruction (enforced by test). Edge coverage is recorded
// at the dispatch point on every entry, linked or not, so fuzzing
// fingerprints are independent of the links.
//
//	internal/cfg        dynamic procedure discovery + predominators
//	internal/trace      Daikon front end (per-instruction operand tracing)
//	internal/daikon     invariant inference engine + community DB merge
//	internal/monitor    Memory Firewall, Heap Guard, Shadow Stack,
//	                    Fault Guard (divide-by-zero, unaligned access),
//	                    Hang Guard (runaway-loop step budget)
//	internal/correlate  candidate selection, checking patches, classification
//	internal/repair     candidate repair generation
//	internal/evaluate   repair scoring and ranking
//	internal/replay     deterministic record/replay + parallel patch farm
//	                    + farm-backed report vetting (Farm.Vet)
//	internal/obs        pipeline telemetry: metrics registry + stage spans
//	                    with on-CPU/blocked accounting (nil-safe, zero-cost
//	                    when disabled)
//	internal/perfvc     performance version system: benchmark suite
//	                    registry, noise-aware profile comparison, CI gate
//	                    (cmd/perfvc; BENCH_pr*.json lineage)
//	internal/fuzz       coverage-guided exploit-variant fuzzer
//	internal/core       the ClearView pipeline orchestrator
//	internal/community  the two-tier community (pipe & TCP transports)
//	internal/webapp     the protected application (thirteen seeded defects)
//	internal/redteam    exploit builders, corpora, drivers, reports
//
// internal/community arranges the §3 application community as two tiers:
// node managers attach to Aggregators, which serve their region with the
// same protocol the central Manager speaks (caching per-node directives,
// merging learning uploads, deduplicating recordings per failure
// location) and forward one compacted batch upstream per flush — so
// central-manager load scales with the aggregator count, not the node
// count. All durable state (learning shards, repair assignments,
// quarantine) is keyed by node ID at the manager, which makes churn a
// non-event: nodes crash and re-attach to any aggregator without losing
// anything, aggregators fail over, and mid-campaign joiners are
// protected before first exposure. Reports are sanity-checked at both
// tiers and recordings must reproduce their claimed failure on the
// manager's replay farm; a node that fails any check is quarantined —
// ignored permanently — so tampered input can never poison the shared
// invariant database or steer repair adoption (the §5 discussion's
// attack, defended).
//
// See README.md for the package tour, the replay-farm architecture, the
// community topology, and how to run the benchmarks; ARCHITECTURE.md
// maps each paper section and evaluation artifact to the code that
// reproduces it.
package repro
