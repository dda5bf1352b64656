#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite, a checkpoint-aware bench
# resume smoke (kill a sweep mid-run, rerun with resume=1, final metrics must
# match an uninterrupted run), then an AddressSanitizer pass over the
# fault-tolerance surface (checkpointing, the word-at-a-time CRC-32,
# fail-point injection, corrupted-file parsing) and the arena/workspace
# memory model, and a ThreadSanitizer pass over the parallel runtime
# (thread pool + blocked/threaded kernels), the staged train loop
# (crash/resume, policies, observers), checkpoint rotation's background
# retirer, the data-parallel step executor (8-worker super-steps) and
# concurrent workspace acquire/release, and the online serving tier
# (multi-producer microbatch queue with mid-flight snapshot swaps, bounded
# admission + degradation ladder + request deadlines). A forced
# DAREC_SIMD=scalar ctest lane and train_bench/serve_bench smokes guard the
# runtime-dispatched SIMD kernels; a parity-gated bench smoke times each
# fused loss op against its eager composition (fused_ops_test holds them
# bitwise equal in tier-1 and under ASan). A data_bench smoke
# generates a multi-shard web_scale catalog and gates the streamed
# (memory-mapped) data path bitwise against the resident one. An
# UndefinedBehaviorSanitizer pass runs the whole suite and aborts on the
# first finding.
#
# Usage: scripts/check.sh [--no-asan] [--no-tsan] [--no-ubsan]
set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=1
run_tsan=1
run_ubsan=1
for arg in "$@"; do
  [[ "$arg" == "--no-asan" ]] && run_asan=0
  [[ "$arg" == "--no-tsan" ]] && run_tsan=0
  [[ "$arg" == "--no-ubsan" ]] && run_ubsan=0
done

echo "=== tier-1: Release build + ctest ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" >/dev/null
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== smoke: batched top-K bench (1 repetition, bitwise parity gates) ==="
cmake --build build -j "$(nproc)" --target topk_bench >/dev/null
./build/bench/topk_bench smoke=1 out=build/BENCH_topk_smoke.json

echo "=== smoke: autograd memory profile (steady-state allocations) ==="
cmake --build build -j "$(nproc)" --target micro_losses >/dev/null
./build/bench/micro_losses --alloc_json=build/BENCH_autograd_smoke.json

echo "=== smoke: fused loss ops (each vs its eager composition, bitwise parity gates) ==="
./build/bench/micro_losses --fusion_json=build/BENCH_fusion_smoke.json

echo "=== smoke: train bench (workers x SIMD sweep, bitwise parity gates) ==="
cmake --build build -j "$(nproc)" --target train_bench >/dev/null
./build/bench/train_bench datasets=tiny epochs=2 workers=1,8 \
  out=build/BENCH_train_smoke.json

echo "=== smoke: data bench (web_scale shards, streamed vs resident parity) ==="
cmake --build build -j "$(nproc)" --target data_bench >/dev/null
# Generates a downscaled multi-shard web_scale catalog, streams BPR epochs
# off the memory-mapped shards, and hard-fails on any bitwise drift between
# the streamed and resident data paths.
./build/bench/data_bench users=20000 items=5000 epochs=1 \
  out=build/BENCH_data_smoke.json

echo "=== smoke: serve bench (microbatched queue, fp32 bitwise parity gates) ==="
cmake --build build -j "$(nproc)" --target serve_bench >/dev/null
./build/bench/serve_bench smoke=1 out=build/BENCH_serve_smoke.json

echo "=== smoke: overload ladder (fail-point-stalled flush walks all 3 states) ==="
# serve.slow_flush stalls the first flush 300ms; the burst of submissions
# deterministically climbs the queue through degrade_enter and shed_enter,
# then drains back to Healthy. Asserted inside the binary (DARE_CHECKs).
DAREC_FAILPOINTS=serve.slow_flush=300000:1 \
  ./build/bench/serve_bench overload_smoke=1

echo "=== ctest under DAREC_SIMD=scalar (forced lowest kernel tier) ==="
# The top-K engine scores 32-item panels with the dispatched matmul kernel,
# so its bitwise gates (naive reference, SimilarItems, eval and serving
# parity) run on the scalar tier too.
DAREC_SIMD=scalar ctest --test-dir build --output-on-failure \
  -R 'matrix_test|ops_property_test|cpu_features_test|golden_trace_test|parallel_executor_test|topk_engine_test|recommender_test|metrics_test|server_test'

echo "=== smoke: bench resume (kill table3_main mid-sweep, rerun resume=1) ==="
cmake --build build -j "$(nproc)" --target table3_main >/dev/null
smoke_args=(datasets=tiny backbones=lightgcn epochs=60 checkpoint_every=1)
resume_dir=build/bench_resume_smoke
rm -rf "$resume_dir"
./build/bench/table3_main "${smoke_args[@]}" \
  | grep -v 'completed in' > "$resume_dir.full.txt"
# Kill the checkpointed sweep partway through (it takes ~1s), then resume
# it. Resume from any epoch boundary is bit-exact and unstarted cells train
# from scratch, so the final table must match the uninterrupted run wherever
# the kill lands.
timeout --signal=KILL 0.3 \
  ./build/bench/table3_main "${smoke_args[@]}" checkpoint_dir="$resume_dir" \
  > /dev/null || true
./build/bench/table3_main "${smoke_args[@]}" checkpoint_dir="$resume_dir" \
  resume=1 | grep -v 'completed in' > "$resume_dir.resumed.txt"
# Wall-time footers are stripped; every metric row must be identical.
diff "$resume_dir.full.txt" "$resume_dir.resumed.txt"
rm -rf "$resume_dir" "$resume_dir.full.txt" "$resume_dir.resumed.txt"
echo "resume smoke: final tables identical"

if [[ "$run_asan" == 1 ]]; then
  echo "=== ASan: checkpointing + CRC-32 + fail points + corrupted-file parsing ==="
  cmake -B build-asan -S . -DDAREC_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$(nproc)" \
    --target failpoint_test checkpoint_test crc32_test io_corruption_test io_test \
             trainer_ckpt_test workspace_test graph_context_test \
             alloc_regression_test backoff_test overload_test \
             shards_test web_scale_test sharded_checkpoint_test \
             interactions_test topk_engine_test recommender_test \
             autograd_test parallel_executor_test fused_ops_test >/dev/null
  # overload_test under ASan covers the fail-point-injected flush stalls and
  # failures (expired-promise and degraded-batch memory handling).
  # shards_test/sharded_checkpoint_test replay the bit-flip and truncation
  # sweeps over the mmap'd shard + manifest parsers under ASan, where an
  # out-of-bounds read caused by a corrupted length field would trap.
  # topk_engine_test/recommender_test run the packed item panels and the
  # per-task score tiles under ASan: ragged last panels, one-row groups and
  # whole-panel seen lists are where an out-of-bounds index would hide.
  # autograd_test/parallel_executor_test cover the seeded backward and the
  # shared-forward super-step: per-slot leaves and the forward's arena
  # outlive step graphs, so a stale buffer or slot would show here.
  # fused_ops_test: the fused backward passes read scratch stashed at
  # forward time (row norms, exp outputs), inside and outside the arena.
  # crc32_test runs the CRC's unaligned eight-byte loads and byte tails at
  # every start offset and length up to 300, where a read past the end
  # would trap.
  ctest --test-dir build-asan --output-on-failure \
    -R 'failpoint_test|checkpoint_test|crc32_test|io_corruption_test|io_test|trainer_ckpt_test|workspace_test|graph_context_test|alloc_regression_test|backoff_test|overload_test|shards_test|web_scale_test|sharded_checkpoint_test|interactions_test|topk_engine_test|recommender_test|autograd_test|parallel_executor_test|fused_ops_test'
fi

if [[ "$run_ubsan" == 1 ]]; then
  echo "=== UBSan: the whole suite (abort on the first finding) ==="
  cmake -B build-ubsan -S . -DDAREC_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$(nproc)" >/dev/null
  ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)"
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "=== TSan: thread pool + parallel kernels + top-K engine + crash/resume + checkpoint retirer ==="
  cmake -B build-tsan -S . -DDAREC_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$(nproc)" \
    --target thread_pool_test parallel_kernels_test topk_engine_test \
             kmeans_test failpoint_test trainer_ckpt_test \
             train_policies_test train_observer_test workspace_test \
             parallel_executor_test cpu_features_test \
             server_test overload_test checkpoint_test \
             sharded_checkpoint_test >/dev/null
  # parallel_executor_test drives 8-worker super-steps (GradSink diversion,
  # fixed-order reduction, per-slot aligner state) under TSan. server_test's
  # hammers run multi-producer submits against the microbatch flusher with
  # snapshot swaps mid-flight and Stop() racing deadline-carrying submits;
  # overload_test adds bounded admission, the degradation ladder, and
  # SubmitWithRetry under the same flusher. sharded_checkpoint_test runs the
  # parallel per-section checkpoint I/O (writes and reads on the global
  # pool) under TSan, including the 1-vs-8-thread byte-parity sweep.
  # checkpoint_test rotates on every Save, so the manager's retirer thread
  # closes retired files while the next commits land, and the destructor
  # drains it.
  ctest --test-dir build-tsan --output-on-failure \
    -R 'thread_pool_test|parallel_kernels_test|topk_engine_test|kmeans_test|failpoint_test|trainer_ckpt_test|train_policies_test|train_observer_test|workspace_test|parallel_executor_test|cpu_features_test|server_test|overload_test|checkpoint_test|sharded_checkpoint_test'
fi

echo "=== all checks passed ==="
