# Convenience entry points for the OmniBoost reproduction.

# Tier-1 verification: everything CI's test job runs. --no-fail-fast:
# cargo stops at the first red test binary otherwise, and a failure
# would hide every suite ordered after it.
.PHONY: verify
verify:
	cargo build --release
	cargo test -q --no-fail-fast

# The tensor, estimator, board-model and search suites again,
# optimized: their bitwise contracts (plan == graph, Conv3x3 == the
# naive mul_add loop, pinned prediction bits, GEMM == naive, GEMM
# conv/linear == the reference kernels at every batch size, the
# fixed-point early exits == the full damped loops, the DES's flat event
# loop == the nested-list reference loop, the keyed reward memo == the
# SipHash reference path) must hold in the profile every benchmark runs,
# not only in debug.
.PHONY: kernels-release
kernels-release:
	cargo test --release -q -p omniboost-tensor -p omniboost-estimator -p omniboost-hw -p omniboost-mcts

# The repo's benchmark (BENCHMARK.json, perfbench/) must not rot: its
# own tests, then a ~17 s smoke of every workload. perfbench is a
# separate package, so this is what catches an API change that breaks
# it before the benchmark pipeline does.
.PHONY: bench-quick
bench-quick:
	cargo test --offline --manifest-path perfbench/Cargo.toml
	cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- --quick

# Perf smoke: the five policy benches end to end in SMOKE mode — shrunken
# budgets/traces, metrics pipelines fully exercised, no JSON snapshot
# rewrites (numbers from noisy runners must not be published) — then
# one per-stage profile of the estimator forward (stage times, the
# multiply's GFLOP/s, which of fma / avx512f the build has), one
# breakdown of cold analytic searches (evaluator vs the search's own
# time per iteration), the ablation bin (its plateau sweep is the
# evidence for SearchBudget's default patience, so it must keep
# running), the paper bin (Fig. 1, Fig. 4, §V-B and Fig. 5 from one
# design-time pass; the paper's figure code runs nowhere else), the
# probe_train bin (where a training step spends its time, and the GEMM
# conv backward next to the reference loop: read it after any kernel
# change) and the serving_sim, rpc_daemon and chaos_fleet walkthroughs
# (their assertions run nowhere else). Latency itself is perfbench's job: see
# bench-quick.
.PHONY: perf-smoke
perf-smoke:
	SMOKE=1 cargo bench --bench serving
	SMOKE=1 cargo bench --bench fleet
	SMOKE=1 cargo bench --bench fleet_scale
	SMOKE=1 cargo bench --bench chaos
	SMOKE=1 cargo bench --bench telemetry_overhead
	cargo run --release --example profile_forward -- 20
	cargo run --release --example profile_search -- 3
	cargo run --release -p omniboost-bench --bin ablation -- --quick
	cargo run --release -p omniboost-bench --bin paper -- --quick
	cargo run --release -p omniboost-bench --bin probe_train
	cargo run --release --example serving_sim
	cargo run --release --example rpc_daemon
	cargo run --release --example chaos_fleet

# Full perf snapshots: rewrites BENCH_serving.json, BENCH_fleet.json,
# BENCH_fleet_scale.json, BENCH_chaos.json and
# BENCH_telemetry_overhead.json with this host's numbers.
.PHONY: perf-snapshots
perf-snapshots:
	cargo bench --bench serving
	cargo bench --bench fleet
	cargo bench --bench fleet_scale
	cargo bench --bench chaos
	cargo bench --bench telemetry_overhead

# Full fleet-scale run only: rewrites BENCH_fleet_scale.json ({16, 64,
# 256}-board rows, ~2000-job traces each).
.PHONY: perf-scale
perf-scale:
	cargo bench --bench fleet_scale

# Full chaos run only: rewrites BENCH_chaos.json (three chaos
# intensities vs a chaos-free oracle, 3 trace seeds each).
.PHONY: perf-chaos
perf-chaos:
	cargo bench --bench chaos

# Full telemetry-overhead run only: rewrites
# BENCH_telemetry_overhead.json (same seeded trace, Telemetry::noop()
# vs Telemetry::recording(); bar: <=3% mean decision-latency overhead,
# identical replay digests).
.PHONY: perf-telemetry
perf-telemetry:
	cargo bench --bench telemetry_overhead
