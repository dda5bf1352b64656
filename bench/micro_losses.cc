// Micro-benchmarks (google-benchmark) for the computational claims in the
// paper's §III-D complexity analysis: the alignment losses scale as
// O(N̂²d) (global, uniformity), O(N̂d) (orthogonality), O(K²d) (local), and
// the graph propagation as O(nnz·d). Forward + backward per iteration.
//
// `micro_losses --alloc_json[=PATH]` instead runs the memory-model profile:
// steady-state Matrix heap allocations / bytes / wall time per step for each
// alignment loss, with the per-step graph arena + workspace pool on
// ("pooled") vs off ("legacy"), and for full TrainStep epochs (always
// pooled), written as BENCH_autograd.json. This is the before/after
// evidence for DESIGN.md §10.
//
// `micro_losses --fusion_json[=PATH]` profiles the fused loss ops (DESIGN.md
// §14): forward+backward wall time per step of each fused op against its
// eager composition (tests/tensor/fused_op_cases.h), at the shapes the
// library's default call sites run plus larger ones, written as
// BENCH_fusion.json. Every row is parity-gated — the run aborts unless the
// fused loss value and input gradients are bitwise equal to the eager ones.
//
// Both JSON modes open with the shared bench/run_header header.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "core/check.h"
#include "core/rng.h"
#include "darec/losses.h"
#include "pipeline/experiment.h"
#include "pipeline/train_loop.h"
#include "tensor/alloc_stats.h"
#include "tensor/autograd.h"
#include "tensor/csr.h"
#include "tensor/fused_op_cases.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "run_header.h"

namespace {

using namespace darec;
using testing::FusedOpCase;
using testing::FusedOpCases;
using tensor::Matrix;
using tensor::Variable;

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  core::Rng rng(seed);
  return tensor::RandomNormal(rows, cols, 1.0f, rng);
}

void BM_OrthogonalityLoss(benchmark::State& state) {
  const int64_t n = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(n, 32, 1));
  Variable b = Variable::Parameter(RandomMatrix(n, 32, 2));
  for (auto _ : state) {
    a.ClearGrad();
    b.ClearGrad();
    Variable loss = model::OrthogonalityLoss(a, b);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_OrthogonalityLoss)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

void BM_UniformityLoss(benchmark::State& state) {
  const int64_t n = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(n, 32, 3));
  for (auto _ : state) {
    a.ClearGrad();
    Variable loss = model::UniformityLoss(a);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_UniformityLoss)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

void BM_GlobalStructureLoss(benchmark::State& state) {
  const int64_t n = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(n, 32, 4));
  Variable b = Variable::Parameter(RandomMatrix(n, 32, 5));
  for (auto _ : state) {
    a.ClearGrad();
    b.ClearGrad();
    Variable loss = model::GlobalStructureLoss(a, b);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GlobalStructureLoss)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

void BM_GlobalStructureLossSoftmax(benchmark::State& state) {
  const int64_t n = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(n, 32, 6));
  Variable b = Variable::Parameter(RandomMatrix(n, 32, 7));
  for (auto _ : state) {
    a.ClearGrad();
    b.ClearGrad();
    Variable loss = model::GlobalStructureLossSoftmax(a, b, 0.5f);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GlobalStructureLossSoftmax)->Arg(128)->Arg(256)->Arg(512)->Complexity();

void BM_LocalStructureLoss(benchmark::State& state) {
  const int64_t k = state.range(0);
  Variable a = Variable::Parameter(RandomMatrix(512, 32, 8));
  Variable b = Variable::Parameter(RandomMatrix(512, 32, 9));
  core::Rng rng(10);
  model::LocalAlignState align_state;
  for (auto _ : state) {
    a.ClearGrad();
    b.ClearGrad();
    Variable loss = model::LocalStructureLoss(
        a, b, k, model::MatchingStrategy::kGreedy, 15, rng, &align_state);
    Backward(loss);
    benchmark::DoNotOptimize(loss.scalar());
  }
}
BENCHMARK(BM_LocalStructureLoss)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

void BM_SpMMForwardBackward(benchmark::State& state) {
  const int64_t nodes = state.range(0);
  const int64_t edges_per_node = 10;
  core::Rng rng(11);
  std::vector<tensor::Triplet> triplets;
  for (int64_t n = 0; n < nodes; ++n) {
    for (int64_t e = 0; e < edges_per_node; ++e) {
      triplets.push_back({n, rng.UniformInt(nodes), 0.1f});
    }
  }
  auto adjacency = std::make_shared<tensor::CsrMatrix>(
      tensor::CsrMatrix::FromTriplets(nodes, nodes, std::move(triplets)));
  Variable e0 = Variable::Parameter(RandomMatrix(nodes, 32, 12));
  for (auto _ : state) {
    e0.ClearGrad();
    Variable out = SpMM(adjacency, e0);
    Backward(tensor::Mean(out));
    benchmark::DoNotOptimize(e0.grad().data());
  }
  state.SetComplexityN(nodes);
}
BENCHMARK(BM_SpMMForwardBackward)->Arg(1024)->Arg(4096)->Arg(16384)->Complexity();

void BM_KMeans(benchmark::State& state) {
  const int64_t n = state.range(0);
  Matrix points = RandomMatrix(n, 32, 13);
  cluster::KMeansOptions options;
  options.num_clusters = 4;
  options.max_iterations = 15;
  core::Rng rng(14);
  for (auto _ : state) {
    cluster::KMeansResult result = cluster::RunKMeans(points, options, rng);
    benchmark::DoNotOptimize(result.inertia);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_KMeans)->Arg(256)->Arg(512)->Arg(1024)->Complexity();

void BM_GreedyVsHungarianMatching(benchmark::State& state) {
  const int64_t k = state.range(0);
  Matrix a = RandomMatrix(k, 32, 15);
  Matrix b = RandomMatrix(k, 32, 16);
  Matrix dist = model::CenterDistances(a, b);
  const bool hungarian = state.range(1) != 0;
  for (auto _ : state) {
    model::CenterMatching matching = hungarian
                                         ? model::HungarianMatchCenters(dist)
                                         : model::GreedyMatchCenters(dist);
    benchmark::DoNotOptimize(matching.left.data());
  }
}
BENCHMARK(BM_GreedyVsHungarianMatching)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

// ---------------------------------------------------------------------------
// Allocation profile (--alloc_json): the memory-model before/after numbers.
// ---------------------------------------------------------------------------

/// One profiled scenario: with the GraphContext arena + workspace pool
/// ("pooled") and, for single losses, also without a context — the
/// allocate-per-op path code outside training still takes ("legacy").
/// Training epochs always run inside the step's context, so their rows
/// have no legacy arm.
struct AllocRow {
  std::string name;
  std::string unit;  // "step" or "epoch"
  int64_t steps = 0;
  bool has_legacy = false;
  int64_t pooled_allocs = 0, pooled_bytes = 0;
  int64_t legacy_allocs = 0, legacy_bytes = 0;
  double pooled_ms = 0.0, legacy_ms = 0.0;
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Profiles `step` (a full forward+backward closure over captive parameters)
/// for `steps` steady-state iterations after one warm-up, pooled and legacy.
template <typename StepFn>
AllocRow ProfileLoss(const std::string& name, StepFn step, int steps = 20) {
  using tensor::AllocStats;
  AllocRow row;
  row.name = name;
  row.unit = "step";
  row.steps = steps;
  row.has_legacy = true;

  {  // Pooled: every iteration runs inside a reusable per-step arena.
    tensor::GraphContext ctx;
    auto run = [&] {
      tensor::GraphContext::Scope scope(&ctx);
      step();
    };
    run();  // Warm-up fills arena slots and the workspace pool.
    ctx.Reset();
    AllocStats::SetEnabled(true);
    AllocStats::Reset();
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) {
      run();
      ctx.Reset();
    }
    row.pooled_ms = MsSince(t0);
    AllocStats::Snapshot snap = AllocStats::Take();
    AllocStats::SetEnabled(false);
    row.pooled_allocs = snap.allocations;
    row.pooled_bytes = snap.bytes;
  }

  {  // Legacy: no context — every op value is a fresh heap node.
    step();  // Symmetric warm-up.
    tensor::AllocStats::SetEnabled(true);
    tensor::AllocStats::Reset();
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < steps; ++i) step();
    row.legacy_ms = MsSince(t0);
    tensor::AllocStats::Snapshot snap = tensor::AllocStats::Take();
    tensor::AllocStats::SetEnabled(false);
    row.legacy_allocs = snap.allocations;
    row.legacy_bytes = snap.bytes;
  }
  return row;
}

pipeline::ExperimentSpec AllocSpec(const std::string& variant) {
  pipeline::ExperimentSpec spec;
  spec.dataset = "tiny";
  spec.backbone = "lightgcn";
  spec.variant = variant;
  spec.backbone_options.embedding_dim = 16;
  spec.backbone_options.num_layers = 2;
  spec.backbone_options.ssl_batch = 64;
  spec.train_options.epochs = 8;
  spec.train_options.batch_size = 256;
  spec.llm_options.output_dim = 24;
  spec.llm_options.hidden_dim = 32;
  spec.darec_options.sample_size = 64;
  spec.darec_options.uniformity_sample = 32;
  spec.darec_options.projection_dim = 16;
  spec.darec_options.hidden_dim = 24;
  spec.darec_options.kmeans_iterations = 5;
  return spec;
}

/// Full training epochs through TrainStep, after one warm-up epoch, on a
/// fresh deterministic experiment.
AllocRow ProfileTrainEpochs(const std::string& variant, int epochs = 2) {
  using tensor::AllocStats;
  AllocRow row;
  row.name = "train_epoch_" + variant;
  row.unit = "epoch";
  row.steps = epochs;
  auto experiment = pipeline::Experiment::Create(AllocSpec(variant));
  if (!experiment.ok()) {
    std::fprintf(stderr, "experiment setup failed: %s\n",
                 experiment.status().ToString().c_str());
    return row;
  }
  pipeline::Trainer& trainer = (*experiment)->trainer();
  trainer.RunEpoch();  // Warm-up epoch.
  AllocStats::SetEnabled(true);
  AllocStats::Reset();
  auto t0 = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) trainer.RunEpoch();
  row.pooled_ms = MsSince(t0);
  AllocStats::Snapshot snap = AllocStats::Take();
  AllocStats::SetEnabled(false);
  row.pooled_allocs = snap.allocations;
  row.pooled_bytes = snap.bytes;
  return row;
}

int RunAllocProfile(const std::string& out_path) {
  std::vector<AllocRow> rows;

  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 21));
    Variable b = Variable::Parameter(RandomMatrix(256, 32, 22));
    rows.push_back(ProfileLoss("orthogonality_256", [&] {
      a.ClearGrad();
      b.ClearGrad();
      Backward(model::OrthogonalityLoss(a, b));
    }));
  }
  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 23));
    rows.push_back(ProfileLoss("uniformity_256", [&] {
      a.ClearGrad();
      Backward(model::UniformityLoss(a));
    }));
  }
  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 24));
    Variable b = Variable::Parameter(RandomMatrix(256, 32, 25));
    rows.push_back(ProfileLoss("global_structure_256", [&] {
      a.ClearGrad();
      b.ClearGrad();
      Backward(model::GlobalStructureLoss(a, b));
    }));
  }
  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 26));
    Variable b = Variable::Parameter(RandomMatrix(256, 32, 27));
    rows.push_back(ProfileLoss("global_structure_softmax_256", [&] {
      a.ClearGrad();
      b.ClearGrad();
      Backward(model::GlobalStructureLossSoftmax(a, b, 0.5f));
    }));
  }
  {
    Variable a = Variable::Parameter(RandomMatrix(256, 32, 28));
    Variable b = Variable::Parameter(RandomMatrix(256, 32, 29));
    core::Rng rng(30);
    model::LocalAlignState align_state;
    rows.push_back(ProfileLoss("local_structure_k8", [&] {
      a.ClearGrad();
      b.ClearGrad();
      Backward(model::LocalStructureLoss(a, b, 8,
                                         model::MatchingStrategy::kGreedy, 15,
                                         rng, &align_state));
    }));
  }
  rows.push_back(ProfileTrainEpochs("baseline"));
  rows.push_back(ProfileTrainEpochs("darec"));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_losses --alloc_json\",\n");
  std::fprintf(f, "  \"header\": %s,\n", darec::bench::RunHeaderJson().c_str());
  std::fprintf(f,
               "  \"note\": \"steady-state Matrix heap allocations per "
               "forward+backward, graph arena + workspace pool (pooled) vs "
               "allocate-per-op without a graph context (legacy, single "
               "losses only: training always runs in a context); counts "
               "cover the measured iterations after one warm-up\",\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const AllocRow& r = rows[i];
    const double n = static_cast<double>(r.steps);
    const char* u = r.unit.c_str();
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iterations\": %lld, \"unit\": "
                 "\"%s\",\n"
                 "     \"pooled\": {\"allocs_per_%s\": %.2f, \"bytes_per_%s\": "
                 "%.1f, \"ms_per_%s\": %.4f}",
                 r.name.c_str(), static_cast<long long>(r.steps), u, u,
                 r.pooled_allocs / n, u, r.pooled_bytes / n, u,
                 r.pooled_ms / n);
    if (r.has_legacy) {
      std::fprintf(f,
                   ",\n     \"legacy\": {\"allocs_per_%s\": %.2f, "
                   "\"bytes_per_%s\": %.1f, \"ms_per_%s\": %.4f}",
                   u, r.legacy_allocs / n, u, r.legacy_bytes / n, u,
                   r.legacy_ms / n);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    std::printf("%-28s pooled %8.2f allocs/%s", r.name.c_str(),
                r.pooled_allocs / n, u);
    if (r.has_legacy) {
      std::printf("  legacy %8.2f allocs/%s", r.legacy_allocs / n, u);
    }
    std::printf("\n");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Fusion profile (--fusion_json): each fused op vs its eager composition,
// parity-gated.
// ---------------------------------------------------------------------------

/// One timed shape of a fused op; `call_site` names the default call site
/// that runs the op at this shape (null for a larger probe shape).
struct FusionShape {
  const char* op;  // A FusedOpCases() name.
  int64_t rows, cols;
  const char* call_site;
};

constexpr FusionShape kFusionShapes[] = {
    {"row_dot", 1024, 32, "BPR scores (batch 1024, dim 32)"},
    {"row_dot", 4096, 64, nullptr},
    {"cosine_rows", 512, 32, "orthogonality (N=512, projection 32)"},
    {"cosine_rows", 4096, 64, nullptr},
    {"square_mean", 512, 1, "orthogonality's mean of squared cosines"},
    {"square_mean_bias", 4, 1, "local term's diagonal (k=4)"},
    {"exp_affine_sum", 256, 256, "uniformity (sample 256)"},
    {"exp_affine_sum", 1024, 1024, nullptr},
    {"mul_sub_sum", 512, 512, "softmax global term (N=512)"},
    {"mul_sub_sum", 1024, 1024, nullptr},
    {"sub_sum_squares", 512, 512, "Frobenius global term (tau=0, N=512)"},
    {"sub_sum_squares", 1024, 1024, nullptr},
    {"mse", 2048, 2048, nullptr},
};

struct FusionRow {
  FusionShape shape;
  int64_t steps = 0;
  double fused_us = 0.0, eager_us = 0.0;  // Median per step.
};

/// Times forward+backward of the fused op and of its eager composition in
/// alternating blocks inside one pooled per-step arena, as training runs
/// them. Aborts unless both give the same loss and gradient bits.
FusionRow ProfileFusion(const FusedOpCase& c, const FusionShape& shape,
                        int blocks = 7) {
  FusionRow row;
  row.shape = shape;
  // About 2^22 input elements per timed block, 10 to 20000 steps.
  const int64_t elems = shape.rows * shape.cols * c.num_inputs;
  row.steps = std::clamp<int64_t>((int64_t{1} << 22) / elems, 10, 20000);
  std::vector<Variable> inputs;
  for (int i = 0; i < c.num_inputs; ++i) {
    inputs.push_back(Variable::Parameter(
        RandomMatrix(shape.rows, shape.cols, 60 + static_cast<uint64_t>(i))));
  }
  tensor::GraphContext ctx;
  // The warm-up steps fill arena slots and pooled buffers, and gate parity.
  DARE_CHECK(testing::StepBits(c.fused, inputs, &ctx) ==
             testing::StepBits(c.eager, inputs, &ctx))
      << c.name << " " << shape.rows << "x" << shape.cols
      << ": fused op is not bitwise equal to its eager composition";
  std::vector<double> fused_us, eager_us;
  for (int b = 0; b < blocks; ++b) {
    for (bool fused : {true, false}) {
      const FusedOpCase::Build& build = fused ? c.fused : c.eager;
      auto t0 = std::chrono::steady_clock::now();
      for (int64_t i = 0; i < row.steps; ++i) {
        for (Variable& in : inputs) in.ClearGrad();
        {
          tensor::GraphContext::Scope scope(&ctx);
          Backward(build(inputs));
        }
        ctx.Reset();
      }
      (fused ? fused_us : eager_us).push_back(1e3 * MsSince(t0) / row.steps);
    }
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  row.fused_us = median(fused_us);
  row.eager_us = median(eager_us);
  return row;
}

int RunFusionProfile(const std::string& out_path) {
  const std::vector<FusedOpCase> cases = FusedOpCases();
  std::vector<FusionRow> rows;
  for (const FusionShape& shape : kFusionShapes) {
    auto it = std::find_if(cases.begin(), cases.end(),
                           [&](const FusedOpCase& c) {
                             return std::strcmp(c.name, shape.op) == 0;
                           });
    DARE_CHECK(it != cases.end()) << "no fused op case " << shape.op;
    rows.push_back(ProfileFusion(*it, shape));
    const FusionRow& r = rows.back();
    std::printf("%-17s %5lldx%-5lld fused %10.3f us  eager %10.3f us  %.2fx\n",
                shape.op, static_cast<long long>(shape.rows),
                static_cast<long long>(shape.cols), r.fused_us, r.eager_us,
                r.eager_us / r.fused_us);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_losses --fusion_json\",\n");
  std::fprintf(f, "  \"header\": %s,\n", darec::bench::RunHeaderJson().c_str());
  std::fprintf(f,
               "  \"note\": \"forward+backward wall time per step of each "
               "fused loss op vs its eager composition "
               "(tests/tensor/fused_op_cases.h), inside a pooled graph "
               "context; median of 7 alternating blocks; loss values and "
               "input gradients are bitwise equal (DARE_CHECK-gated), so "
               "speedup is the only delta; call_site names the default "
               "call site that runs the shape\",\n");
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const FusionRow& r = rows[i];
    std::string call_site = "null";
    if (r.shape.call_site != nullptr) {
      call_site = std::string("\"") + r.shape.call_site + "\"";
    }
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"rows\": %lld, \"cols\": %lld, "
                 "\"call_site\": %s,\n"
                 "     \"steps_per_block\": %lld, \"fused_us_per_step\": %.3f, "
                 "\"eager_us_per_step\": %.3f, \"speedup\": %.2f}%s\n",
                 r.shape.op, static_cast<long long>(r.shape.rows),
                 static_cast<long long>(r.shape.cols), call_site.c_str(),
                 static_cast<long long>(r.steps), r.fused_us, r.eager_us,
                 r.eager_us / r.fused_us, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--alloc_json", 0) == 0) {
      const size_t eq = arg.find('=');
      return RunAllocProfile(eq == std::string::npos ? "BENCH_autograd.json"
                                                     : arg.substr(eq + 1));
    }
    if (arg.rfind("--fusion_json", 0) == 0) {
      const size_t eq = arg.find('=');
      return RunFusionProfile(eq == std::string::npos ? "BENCH_fusion.json"
                                                      : arg.substr(eq + 1));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
