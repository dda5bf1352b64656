// The benchmark of record: one whole DaRec run per workload — build a model
// (train → evaluate → checkpoint, or load a catalog), publish a
// ModelSnapshot, then serve open-loop Poisson load through serve::Server —
// with every end-to-end metric printed as "metric <name> <value> <unit>"
// and written to one JSON file. The run exits non-zero when a correctness
// gate fails.
//
//   e2e_bench workload=<name> seed=<n> [seconds=8] [trace=1] [smoke=1]
//             [out=e2e_<workload>.json] [trace_out=trace_<workload>.json]
//             [work=<scratch dir>]
//
// Workloads (README.md says why each exists):
//   darec_e2e     amazon-book, LightGCN+DaRec, serial trainer, 4 epochs;
//                 serve the trained snapshot at 4,000 qps.
//   lightgcn_dp   amazon-book, LightGCN alone, workers=4 grad_accum=8,
//                 12 epochs; serve the trained snapshot at 4,000 qps.
//   web_serve     web_scale catalog (200k users, 20k items, 8 shards),
//                 seeded random d=64 embeddings; 7,500 qps reference phase
//                 then a rate ladder, with a snapshot rebuilt from the
//                 memory-mapped store and reloaded every 2 s throughout.
//   web_overload  the same catalog at a fixed 30,000 qps, default
//                 ServerOptions (bounded queue, degradation ladder).
//
// `seed` drives the model initialization, the training order, the catalog,
// the arrival schedules and the user draws; the Table II dataset preset
// stays fixed. `seconds` sets the length of the serving phases; training
// runs a fixed number of epochs. Set-up runs three times and reports the
// median.
//
// trace=1 runs the same workload with spans recorded from the outside —
// an observer on the train loop, a forwarding Aligner, and standalone calls
// into each module's public functions after the run — and adds the
// per-layer metrics plus a Chrome trace-event file. Its losses and recall
// are bit-identical to the untraced run (the "digest" field).
//
// smoke=1 shrinks every workload (tiny preset, 1 epoch, a 20k-user catalog,
// sub-second phases) with every gate still on.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/config.h"
#include "core/rng.h"
#include "data/shards.h"
#include "data/web_scale.h"
#include "eval/metrics.h"
#include "loadgen.h"
#include "pipeline/experiment.h"
#include "probes.h"
#include "report.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "tensor/init.h"
#include "trace.h"

namespace darec::e2e {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kTopK = 20;
constexpr int64_t kTimeoutUs = 50'000;
constexpr int kSetupReps = 3;
// A snapshot build takes tens of milliseconds. The first few builds of a
// process run slower while freed memory finds its way back to the
// allocator, and the shared host slows memory-bound work for seconds at a
// time, so the web workloads' model stage discards kWebWarmupBuilds, then
// reports the fastest of kWebModelBuilds builds made before serving,
// kWebModelBuilds more made after it and web_serve's background rebuilds.
constexpr int kWebWarmupBuilds = 2;
constexpr int kWebModelBuilds = 4;

// The serving SLO the rate ladder holds each step to.
constexpr double kLadderP99Ms = 25.0;
constexpr double kLadderMaxFailShare = 0.001;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 8.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string trace_out;
  std::string work_dir;
};

/// One training workload's shape. Only options that define the workload
/// are set; numeric-path switches (fusion, int8, sharded checkpoints) stay
/// at their defaults so deleting one of a pair of code paths never forces
/// an edit here.
struct TrainShape {
  const char* variant;
  int64_t epochs;
  int64_t eval_every;
  int64_t checkpoint_every;
  int workers;
  int64_t grad_accum;
};

constexpr TrainShape kDarecE2e{"darec", 4, 2, 2, 1, 0};
constexpr TrainShape kLightgcnDp{"baseline", 12, 4, 4, 4, 8};

/// Run-wide state shared by the workload bodies.
struct Run {
  Options opt;
  Report& report;
  Tracer& tracer;
  core::Rng phase_seeds;  // one seed per serving phase, in phase order
  Clock::time_point timed_start;
  double cpu_start = 0.0;
  int64_t requests = 0;
  std::vector<std::string> phase_json;
};

double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Order-sensitive digest of a sequence of 64-bit words (SplitMix mixing).
uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  return h ^ (h >> 33);
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNum(values[i]);
  }
  return out + "]";
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ",\n    " : "\n    ") + items[i];
  }
  return out + (items.empty() ? "]" : "\n  ]");
}

/// The per-layer metrics every traced run reports, zero where the workload
/// does not exercise the layer. Kept in step with BENCHMARK.json's
/// per_layer list (the smoke test checks every name and unit).
void SetPerLayerDefaults(Report& r) {
  const std::pair<const char*, const char*> layers[] = {
      {"data.sample_us_per_batch", "us"}, {"data.catalog_gen_s", "s"},
      {"pipeline.epoch_s_p50", "s"},      {"pipeline.batch_ms_p50", "ms"},
      {"pipeline.batch_ms_p99", "ms"},    {"pipeline.eval_s", "s"},
      {"pipeline.ckpt_s", "s"},           {"pipeline.final_s", "s"},
      {"pipeline.unaccounted_s", "s"},    {"pipeline.triples_per_s", "1/s"},
      {"align.loss_ms_p50", "ms"},        {"align.share", "ratio"},
      {"align.calls", "count"},           {"darec.orthogonality_ms", "ms"},
      {"darec.uniformity_ms", "ms"},      {"darec.global_ms", "ms"},
      {"darec.local_ms", "ms"},           {"cf.forward_ms", "ms"},
      {"cf.backward_ms", "ms"},           {"tensor.adam_step_ms", "ms"},
      {"eval.ranking_s", "s"},            {"eval.recall_at_20", "ratio"},
      {"eval.ndcg_at_20", "ratio"},       {"ckpt.save_s", "s"},
      {"ckpt.bytes", "bytes"},            {"topk.us_per_user_b64", "us"},
      {"serve.snapshot_build_s", "s"},    {"serve.reload_us", "us"},
      {"serve.mean_batch", "count"},      {"serve.flushes", "count"},
      {"serve.size_flush_share", "ratio"}, {"serve.deadline_flush_share", "ratio"},
      {"serve.peak_pending", "count"},    {"serve.shed_admission", "count"},
      {"serve.shed_deadline", "count"},   {"serve.degraded_flushes", "count"},
      {"serve.ladder_transitions", "count"}, {"serve.p999_ms", "ms"},
      {"serve.max_qps", "1/s"},           {"serve.fail_share", "ratio"},
      {"core.cpu_per_wall", "ratio"},     {"loadgen.late_p99_us", "us"},
      {"loadgen.requests", "count"},
  };
  for (const auto& [name, unit] : layers) r.Set(name, 0.0, unit);
}

/// Starts the timed part of the run: everything before it is set-up.
void StartTimed(Run& run) {
  run.timed_start = Clock::now();
  run.cpu_start = CpuSeconds();
}

/// How a phase's requests count towards the run's attempted/failed totals.
enum class Counting {
  /// Warm-up absorbs cold-start effects and is not measured.
  kNotMeasured,
  /// Every request should be served; a shed or expired one failed.
  kExpectServed,
  /// Driven past capacity on purpose (the ladder's upper steps, overload):
  /// sheds and expiries are the server's designed answers, not failures.
  kPastCapacity,
};

/// Runs one serving phase and folds it into the run's gates and counts.
PhaseResult Serve(Run& run, serve::Server& server, const std::string& name,
                  double qps, double seconds, int64_t num_users, Counting counting) {
  PhaseSpec spec;
  spec.name = name;
  spec.qps = qps;
  spec.seconds = seconds;
  spec.k = kTopK;
  spec.timeout_us = kTimeoutUs;
  spec.seed = run.phase_seeds.NextUint64();
  PhaseResult phase = RunPhase(server, spec, num_users, run.tracer);
  std::string detail;
  run.report.Gate("accounting." + name, AccountingCloses(phase, &detail), detail);
  if (counting != Counting::kNotMeasured) {
    run.report.CountAttempted(phase.attempted);
    run.report.CountFailed(counting == Counting::kExpectServed ? phase.failed()
                                                               : phase.other_errors);
  }
  run.requests += phase.attempted;
  run.phase_json.push_back(PhaseJson(phase));
  return phase;
}

/// Reports the end-to-end serving metrics of the workload's main phase and
/// (traced) the serve-layer counters over it.
void ReportServing(Run& run, const PhaseResult& main, const serve::Server& server) {
  Report& r = run.report;
  r.Set("serve_p50_ms", main.window_median_ms_at(0.50), "ms");
  r.Set("serve_p99_ms", main.window_median_ms_at(0.99), "ms");
  r.Set("goodput_per_s", main.goodput_per_s(), "1/s");
  r.Set("fail_share", main.fail_share(), "ratio");
  if (!run.opt.trace) return;
  const serve::ServerStats& a = main.after;
  const serve::ServerStats& b = main.before;
  const double flushes = static_cast<double>(a.flushes - b.flushes);
  const auto share = [flushes](int64_t n) { return flushes > 0 ? n / flushes : 0.0; };
  r.Set("serve.mean_batch",
        share(a.completed - b.completed + a.failed - b.failed), "count");
  r.Set("serve.flushes", flushes, "count");
  r.Set("serve.size_flush_share", share(a.size_flushes - b.size_flushes), "ratio");
  r.Set("serve.deadline_flush_share",
        share(a.deadline_flushes - b.deadline_flushes), "ratio");
  r.Set("serve.peak_pending", static_cast<double>(server.stats().peak_pending), "count");
  r.Set("serve.shed_admission", static_cast<double>(a.shed_admission - b.shed_admission),
        "count");
  r.Set("serve.shed_deadline", static_cast<double>(a.shed_deadline - b.shed_deadline),
        "count");
  r.Set("serve.degraded_flushes",
        static_cast<double>(a.degraded_flushes - b.degraded_flushes), "count");
  r.Set("serve.ladder_transitions",
        static_cast<double>((a.to_degraded + a.to_shedding + a.to_healthy) -
                            (b.to_degraded + b.to_shedding + b.to_healthy)),
        "count");
  r.Set("serve.p999_ms", main.served_ms_at(0.999), "ms");
  r.Set("serve.fail_share", main.fail_share(), "ratio");
  r.Set("loadgen.late_p99_us", main.late_us_at(0.99), "us");
}

/// The prefix gate over every phase of the run.
void GatePrefixes(Run& run, const std::vector<PhaseResult>& phases,
                  const serve::ModelSnapshot& reference, uint64_t max_version) {
  std::vector<const PhaseResult*> all;
  for (const PhaseResult& p : phases) all.push_back(&p);
  int64_t checked = 0;
  std::string detail;
  const int64_t failures = CheckPrefixes(all, reference, max_version, &checked, &detail);
  run.report.Gate("served_prefix_of_serial_topk", failures == 0 && checked > 0,
                  std::to_string(checked) + " sampled results checked" +
                      (failures > 0 ? "; " + detail : ""));
  run.report.CountFailed(failures);
}

std::string LayerRow(const std::string& layer, double seconds) {
  return "{\"layer\": " + JsonStr(layer) + ", \"self_s\": " + JsonNum(seconds) + "}";
}

/// Size of the newest checkpoint file under `dir` (names carry the
/// zero-padded step, so the lexicographically last one is the newest).
double NewestCheckpointBytes(const std::string& dir) {
  std::string newest;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().string() > newest) newest = e.path().string();
  }
  return newest.empty() ? 0.0 : static_cast<double>(fs::file_size(newest));
}

// --- training workloads ------------------------------------------------------

pipeline::ExperimentSpec MakeSpec(const Options& opt, const TrainShape& shape,
                                  const std::string& checkpoint_dir) {
  pipeline::ExperimentSpec spec;
  spec.dataset = opt.smoke ? "tiny" : "amazon-book";
  spec.backbone = "lightgcn";
  spec.variant = shape.variant;
  spec.backbone_options.seed = opt.seed;
  spec.darec_options.seed = opt.seed;
  pipeline::TrainOptions& t = spec.train_options;
  t.seed = opt.seed;
  t.epochs = opt.smoke ? 1 : shape.epochs;
  t.eval_every = opt.smoke ? 1 : shape.eval_every;
  t.checkpoint_every = opt.smoke ? 1 : shape.checkpoint_every;
  // Patience covers every evaluation, so the run never stops early and
  // always trains the same number of epochs.
  t.patience = t.epochs;
  t.checkpoint_dir = checkpoint_dir;
  t.workers = shape.workers;
  t.grad_accum = shape.grad_accum;
  return spec;
}

void RunTraining(Run& run, const TrainShape& shape) {
  Report& r = run.report;
  const Options& opt = run.opt;
  const std::string checkpoint_dir = opt.work_dir + "/checkpoints";
  const pipeline::ExperimentSpec spec = MakeSpec(opt, shape, checkpoint_dir);
  const pipeline::TrainOptions& train = spec.train_options;

  std::unique_ptr<pipeline::Experiment> experiment;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    experiment.reset();
    fs::remove_all(checkpoint_dir);
    const Clock::time_point start = Clock::now();
    auto created = pipeline::Experiment::Create(spec);
    DARE_CHECK(created.ok()) << created.status().ToString();
    experiment = std::move(created).value();
    setup_s.push_back(SecondsSince(start));
  }
  r.Set("setup_s", Median(setup_s), "s");
  pipeline::Experiment& exp = *experiment;
  const data::Dataset& dataset = exp.dataset();

  StartTimed(run);
  pipeline::MetricsObserver metrics;
  const int64_t run_span = run.tracer.NewId();
  SpanObserver spans(run.tracer, run_span);
  std::unique_ptr<TimingAligner> timing;
  std::unique_ptr<pipeline::Trainer> traced_trainer;
  pipeline::TrainResult result;
  const Clock::time_point run_start = Clock::now();
  if (!opt.trace) {
    result = exp.Run(&metrics);
  } else {
    // A bench-built Trainer over the experiment's parts, with the aligner
    // behind a timing decorator; the digest gate proves it trains the same
    // bits as Experiment::Run.
    if (exp.aligner() != nullptr) {
      timing = std::make_unique<TimingAligner>(exp.aligner(), run.tracer, spans);
    }
    traced_trainer = std::make_unique<pipeline::Trainer>(&exp.backbone(), timing.get(),
                                                         &dataset, train);
    traced_trainer->AddObserver(&metrics);
    traced_trainer->AddObserver(&spans);
    result = traced_trainer->Run();
  }
  const Clock::time_point run_end = Clock::now();
  run.tracer.Add("run", run_span, 0, run_start, run_end, 0);
  const double run_s = std::chrono::duration<double>(run_end - run_start).count();

  const Clock::time_point build_start = Clock::now();
  auto created = serve::ModelSnapshot::Create(result.final_embeddings, &dataset,
                                              /*build_int8=*/false, /*version=*/1);
  DARE_CHECK(created.ok()) << created.status().ToString();
  const std::shared_ptr<const serve::ModelSnapshot> snapshot = *created;
  const double build_s = SecondsSince(build_start);

  const pipeline::TrainMetricsSnapshot m = metrics.Snapshot();
  double epoch_seconds = 0.0;
  for (double s : m.epoch_seconds) epoch_seconds += s;
  const double triples = static_cast<double>(m.epochs_completed) *
                         static_cast<double>(dataset.train().size());
  const double recall = result.test_metrics.recall.at(kTopK);
  const double ndcg = result.test_metrics.ndcg.at(kTopK);
  r.Set("model_s", run_s + build_s, "s");
  r.Set("run_s", run_s, "s");
  r.Set("train_triples_per_s", epoch_seconds > 0 ? triples / epoch_seconds : 0.0, "1/s");
  r.Set("recall_at_20", recall, "ratio");
  r.Set("ndcg_at_20", ndcg, "ratio");

  const int64_t expected_ckpts = 1 + train.epochs / train.checkpoint_every;
  const int64_t expected_evals = train.epochs / train.eval_every;
  bool losses_finite = true;
  uint64_t digest = 0;
  for (double loss : result.epoch_losses) {
    losses_finite &= std::isfinite(loss);
    digest = Mix(digest, Bits(loss));
  }
  digest = Mix(Mix(digest, Bits(recall)), Bits(ndcg));
  r.Gate("train.no_divergence", !result.diverged && result.divergence_recoveries == 0);
  r.Gate("train.all_epochs",
         m.epochs_completed == train.epochs && !m.stopped_early,
         std::to_string(m.epochs_completed) + " of " + std::to_string(train.epochs));
  r.Gate("train.losses_finite", losses_finite);
  r.Gate("train.evals", m.evals == expected_evals,
         std::to_string(m.evals) + " of " + std::to_string(expected_evals));
  r.Gate("train.checkpoints",
         m.checkpoints_committed == expected_ckpts && m.checkpoint_failures == 0,
         std::to_string(m.checkpoints_committed) + " committed, " +
             std::to_string(m.checkpoint_failures) + " failed");
  // The trained model must beat a random ranking (expected recall k/items);
  // one smoke epoch on the tiny preset is too short to promise that.
  const double chance = static_cast<double>(kTopK) / dataset.num_items();
  r.Gate("train.beats_random_ranking",
         std::isfinite(recall) && (opt.smoke || recall > chance),
         "recall@20 " + JsonNum(recall) + " vs chance " + JsonNum(chance));
  r.CountAttempted(m.batches_seen + m.evals + m.checkpoints_committed +
                   m.checkpoint_failures);
  r.CountFailed(m.checkpoint_failures + m.divergence_rollbacks +
                (result.diverged ? 1 : 0));
  r.AddSection("digest", JsonStr(Hex(digest)));
  r.AddSection("training",
               "{\"dataset\": " + JsonStr(spec.dataset) +
                   ", \"variant\": " + JsonStr(spec.variant) +
                   ", \"epochs\": " + std::to_string(train.epochs) +
                   ", \"train_interactions\": " +
                   std::to_string(dataset.train().size()) +
                   ", \"epoch_losses\": " + JsonNumbers(result.epoch_losses) +
                   ", \"epoch_seconds\": " + JsonNumbers(m.epoch_seconds) +
                   ", \"recall_at_20\": " + JsonNum(recall) +
                   ", \"ndcg_at_20\": " + JsonNum(ndcg) + "}");

  // Serve the trained model: warm-up, then the measured phase.
  const double qps = 4000.0;
  const double warmup_s = opt.smoke ? 0.25 : 1.0;
  const double measure_s = opt.smoke ? 0.5 : opt.seconds / 2.0;
  std::vector<PhaseResult> phases;
  {
    serve::Server server(snapshot);
    phases.push_back(Serve(run, server, "warmup", qps, warmup_s,
                           dataset.num_users(), Counting::kNotMeasured));
    phases.push_back(Serve(run, server, "serve", qps, measure_s,
                           dataset.num_users(), Counting::kExpectServed));
    server.Stop();
    ReportServing(run, phases.back(), server);
  }
  GatePrefixes(run, phases, *snapshot, 1);

  if (!opt.trace) return;
  // --- per-layer readouts (after the timed run; nothing here is in run_s) ---
  std::vector<double> batch_ms = spans.batch_ms();
  std::sort(batch_ms.begin(), batch_ms.end());
  r.Set("data.sample_us_per_batch",
        ProbeSampleUsPerBatch(dataset, train.batch_size, opt.seed), "us");
  r.Set("pipeline.epoch_s_p50", Median(spans.epoch_s()), "s");
  r.Set("pipeline.batch_ms_p50", Percentile(batch_ms, 0.50), "ms");
  r.Set("pipeline.batch_ms_p99", Percentile(batch_ms, 0.99), "ms");
  r.Set("pipeline.eval_s", spans.eval_s(), "s");
  r.Set("pipeline.ckpt_s", spans.ckpt_s(), "s");
  r.Set("pipeline.final_s", spans.final_s(), "s");
  r.Set("pipeline.triples_per_s", r.Get("train_triples_per_s"), "1/s");
  r.Set("eval.recall_at_20", recall, "ratio");
  r.Set("eval.ndcg_at_20", ndcg, "ratio");
  if (timing != nullptr) {
    const std::vector<double> align_ms = timing->call_ms();
    double align_s = 0.0;
    for (double ms : align_ms) align_s += ms * 1e-3;
    double epochs_s = 0.0;
    for (double s : spans.epoch_s()) epochs_s += s;
    r.Set("align.loss_ms_p50", Median(align_ms), "ms");
    r.Set("align.share", epochs_s > 0 ? align_s / epochs_s : 0.0, "ratio");
    r.Set("align.calls", static_cast<double>(align_ms.size()), "count");
  }
  if (exp.darec() != nullptr) {
    const DaRecLossProbe p = ProbeDaRecLosses(
        *exp.darec(), exp.backbone().InferenceEmbeddings(), opt.seed);
    r.Set("darec.orthogonality_ms", p.orthogonality_ms, "ms");
    r.Set("darec.uniformity_ms", p.uniformity_ms, "ms");
    r.Set("darec.global_ms", p.global_ms, "ms");
    r.Set("darec.local_ms", p.local_ms, "ms");
  }
  const BackboneProbe cf = ProbeBackbone(exp.backbone(), opt.seed);
  r.Set("cf.forward_ms", cf.forward_ms, "ms");
  r.Set("cf.backward_ms", cf.backward_ms, "ms");
  std::vector<tensor::Variable> params = exp.backbone().Params();
  if (exp.aligner() != nullptr) {
    for (const tensor::Variable& p : exp.aligner()->Params()) params.push_back(p);
  }
  r.Set("tensor.adam_step_ms", ProbeAdamStepMs(params), "ms");
  r.Set("eval.ranking_s", MedianSeconds(3, [&] {
          eval::EvaluateRanking(result.final_embeddings, dataset);
        }), "s");
  bool saved = true;
  r.Set("ckpt.save_s", MedianSeconds(3, [&] {
          saved &= traced_trainer->SaveCheckpoint().ok();
        }), "s");
  r.Gate("ckpt.probe_saves", saved);
  r.Set("ckpt.bytes", NewestCheckpointBytes(checkpoint_dir), "bytes");
  r.Set("topk.us_per_user_b64", ProbeTopKUsPerUser(*snapshot, kTopK, opt.seed), "us");

  // The layer table: self times of the run's spans, which sum to run_s.
  const std::map<std::string, double> self = run.tracer.SelfSeconds();
  const auto self_of = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  r.Set("pipeline.unaccounted_s", self_of("run"), "s");
  const std::vector<std::pair<std::string, double>> rows = {
      {"align (aligner forward)", self_of("align")},
      {"step (sampling, forward, backward, apply)", self_of("batch")},
      {"epoch bookkeeping", self_of("epoch")},
      {"periodic evaluation", self_of("eval")},
      {"checkpoint commits", self_of("checkpoint")},
      {"final evaluation", self_of("final_eval")},
      {"unaccounted", self_of("run")},
  };
  std::vector<std::string> rendered;
  double sum = 0.0;
  for (const auto& [layer, seconds] : rows) {
    rendered.push_back(LayerRow(layer, seconds));
    sum += seconds;
  }
  r.Gate("layers_sum_to_run_s", std::fabs(sum - run_s) <= 1e-3 * run_s + 1e-4,
         "sum " + JsonNum(sum) + " vs run_s " + JsonNum(run_s));
  r.AddSection("layers", "{\"run_s\": " + JsonNum(run_s) + ", \"sum_s\": " +
                             JsonNum(sum) + ", \"rows\": " + JsonList(rendered) + "}");
}

// --- web-scale serving workloads ----------------------------------------------

/// Rebuilds a snapshot from the memory-mapped store every `period` and
/// reloads it into the server, on one background thread, until destroyed.
/// Every rebuild has the same content (same embeddings, same store), so a
/// result's reported version never changes the expected ranking.
class Reloader {
 public:
  Reloader(serve::Server& server, const data::InteractionStore& store,
           const tensor::Matrix& embeddings, double period_s, Tracer& tracer)
      : server_(server), store_(store), embeddings_(embeddings),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(period_s))),
        tracer_(tracer), thread_([this] { Loop(); }) {}

  ~Reloader() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  uint64_t version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }
  std::vector<double> build_s() const {
    std::lock_guard<std::mutex> lock(mu_);
    return build_s_;
  }
  std::vector<double> reload_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reload_us_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
      const uint64_t next_version = version_ + 1;
      lock.unlock();
      tensor::Matrix copy = embeddings_;
      const Clock::time_point t0 = Clock::now();
      auto next = serve::ModelSnapshot::CreateFromStore(std::move(copy), store_,
                                                        false, next_version);
      DARE_CHECK(next.ok()) << next.status().ToString();
      const Clock::time_point t1 = Clock::now();
      server_.ReloadModel(*next);
      const Clock::time_point t2 = Clock::now();
      tracer_.Add("snapshot_build", tracer_.NewId(), 0, t0, t1, 3);
      tracer_.Add("reload", tracer_.NewId(), 0, t1, t2, 3);
      lock.lock();
      version_ = next_version;
      build_s_.push_back(std::chrono::duration<double>(t1 - t0).count());
      reload_us_.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
  }

  serve::Server& server_;
  const data::InteractionStore& store_;
  const tensor::Matrix& embeddings_;
  Clock::duration period_;
  Tracer& tracer_;
  mutable std::mutex mu_;  // guards stop_, version_, build_s_, reload_us_
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t version_ = 1;
  std::vector<double> build_s_;
  std::vector<double> reload_us_;
  std::thread thread_;  // last: started after every member it uses
};

void RunWeb(Run& run, bool overload) {
  Report& r = run.report;
  const Options& opt = run.opt;
  data::WebScaleOptions catalog_options;
  catalog_options.num_users = opt.smoke ? 20'000 : 200'000;
  catalog_options.num_items = opt.smoke ? 2'000 : 20'000;
  catalog_options.users_per_shard = catalog_options.num_users / 8;
  catalog_options.seed = opt.seed;
  const int64_t num_users = catalog_options.num_users;
  const int64_t num_nodes = num_users + catalog_options.num_items;
  const int64_t dim = 64;
  const std::string dir = opt.work_dir + "/catalog";

  std::unique_ptr<data::ShardedInteractions> store;
  tensor::Matrix embeddings;
  std::shared_ptr<const serve::ModelSnapshot> snapshot;
  const auto build_snapshot = [&]() {
    tensor::Matrix copy = embeddings;
    const Clock::time_point start = Clock::now();
    auto created = serve::ModelSnapshot::CreateFromStore(std::move(copy), *store,
                                                         false, /*version=*/1);
    DARE_CHECK(created.ok()) << created.status().ToString();
    const double seconds = SecondsSince(start);
    snapshot = *created;
    return seconds;
  };

  // Set-up ends with the first snapshot: a process's first builds fault in
  // fresh memory and run about twice as long as the ones after.
  std::vector<double> setup_s, gen_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    snapshot.reset();
    store.reset();
    fs::remove_all(dir);
    const Clock::time_point start = Clock::now();
    auto catalog = data::GenerateWebScaleCatalog(dir, catalog_options);
    DARE_CHECK(catalog.ok()) << catalog.status().ToString();
    gen_s.push_back(SecondsSince(start));
    auto opened = data::ShardedInteractions::Open(catalog->train_manifest);
    DARE_CHECK(opened.ok()) << opened.status().ToString();
    store = std::make_unique<data::ShardedInteractions>(std::move(opened).value());
    core::Rng rng(opt.seed);
    embeddings = tensor::RandomNormal(num_nodes, dim, 1.0f, rng);
    build_snapshot();
    setup_s.push_back(SecondsSince(start));
  }
  r.Set("setup_s", Median(setup_s), "s");

  StartTimed(run);
  // The model stage: republishing a servable snapshot from the store.
  for (int rep = 0; rep < kWebWarmupBuilds; ++rep) build_snapshot();
  std::vector<double> model_builds_s;
  for (int rep = 0; rep < kWebModelBuilds; ++rep) {
    model_builds_s.push_back(build_snapshot());
  }

  const double warmup_s = opt.smoke ? 0.25 : 2.0;
  const double reference_qps = 7500.0;
  std::vector<PhaseResult> phases;
  std::vector<std::string> ladder_json;
  double max_qps = 0.0;
  uint64_t max_version = 1;
  std::vector<double> reload_builds_s, reload_us;
  {
    serve::Server server(snapshot);
    std::unique_ptr<Reloader> reloader;
    if (!overload) {
      reloader = std::make_unique<Reloader>(server, *store, embeddings,
                                            opt.smoke ? 0.25 : 2.0, run.tracer);
    }
    phases.push_back(Serve(run, server, "warmup", reference_qps, warmup_s,
                           num_users, Counting::kNotMeasured));
    if (overload) {
      phases.push_back(Serve(run, server, "overload", 30'000.0,
                             opt.smoke ? 0.5 : 0.75 * opt.seconds, num_users,
                             Counting::kPastCapacity));
    } else {
      phases.push_back(Serve(run, server, "reference", reference_qps,
                             opt.smoke ? 0.5 : opt.seconds, num_users,
                             Counting::kExpectServed));
      // The rate ladder: 1 s steps from 9,000 qps, x1.06 each, until two
      // consecutive steps miss the SLO or the rate passes 36,000.
      const double step_s = opt.smoke ? 0.25 : 1.0;
      const int max_steps = opt.smoke ? 3 : 1000;
      int consecutive_misses = 0;
      for (double rate = 9000.0; rate <= 36'000.0 && consecutive_misses < 2 &&
                                 static_cast<int>(ladder_json.size()) < max_steps;
           rate *= 1.06) {
        PhaseResult step = Serve(run, server, "ladder_" + std::to_string(std::lround(rate)),
                                 rate, step_s, num_users, Counting::kPastCapacity);
        const bool pass = step.served_ms_at(0.99) <= kLadderP99Ms &&
                          step.fail_share() <= kLadderMaxFailShare;
        consecutive_misses = pass ? 0 : consecutive_misses + 1;
        if (pass) max_qps = std::max(max_qps, rate);
        ladder_json.push_back("{\"qps\": " + JsonNum(rate) + ", \"p99_ms\": " +
                              JsonNum(step.served_ms_at(0.99)) + ", \"fail_share\": " +
                              JsonNum(step.fail_share()) + ", \"pass\": " +
                              (pass ? "true" : "false") + "}");
        phases.push_back(std::move(step));
      }
      max_version = reloader->version();
      reload_builds_s = reloader->build_s();
      reload_us = reloader->reload_us();
      reloader.reset();
      r.Gate("reloads_happened", !reload_us.empty(),
             std::to_string(reload_us.size()) + " reloads");
    }
    server.Stop();
    ReportServing(run, phases[1], server);
  }
  for (int rep = 0; rep < kWebModelBuilds; ++rep) {
    model_builds_s.push_back(build_snapshot());
  }
  // web_serve's background rebuilds are the same build at other moments of
  // the run; they only add chances to catch the host at its usual speed.
  std::vector<double> build_s = model_builds_s;
  build_s.insert(build_s.end(), reload_builds_s.begin(), reload_builds_s.end());
  r.Set("model_s", *std::min_element(build_s.begin(), build_s.end()), "s");
  GatePrefixes(run, phases, *snapshot, max_version);
  if (overload) {
    r.Set("overload_p99_ms", r.Get("serve_p99_ms"), "ms");
  } else {
    r.Set("serve_max_qps", max_qps, "1/s");
    r.AddSection("ladder", JsonList(ladder_json));
  }

  // Identity of the inputs: ranked lists of a few seeded users on the served
  // snapshot (a function of the catalog and the embeddings alone).
  core::Rng probe_rng(opt.seed);
  std::vector<int64_t> probe_users(8);
  for (int64_t& u : probe_users) u = probe_rng.UniformInt(num_users);
  uint64_t digest = static_cast<uint64_t>(store->nnz());
  const auto lists = snapshot->engine().TopK(
      probe_users, kTopK, [&](int64_t u) { return snapshot->SeenOf(u); },
      topk::MaskMode::kDrop);
  for (const auto& list : lists) {
    for (const topk::ScoredItem& s : list) {
      digest = Mix(Mix(digest, static_cast<uint64_t>(s.item)), Bits(s.score));
    }
  }
  r.AddSection("digest", JsonStr(Hex(digest)));
  r.AddSection("catalog", "{\"users\": " + std::to_string(num_users) +
                              ", \"items\": " + std::to_string(catalog_options.num_items) +
                              ", \"interactions\": " + std::to_string(store->nnz()) +
                              ", \"shards\": " + std::to_string(store->num_blocks()) +
                              ", \"dim\": " + std::to_string(dim) +
                              ", \"model_builds_s\": " + JsonNumbers(model_builds_s) +
                              ", \"reload_builds_s\": " + JsonNumbers(reload_builds_s) + "}");

  if (!opt.trace) return;
  r.Set("data.catalog_gen_s", Median(gen_s), "s");
  r.Set("serve.snapshot_build_s", Median(build_s), "s");
  r.Set("serve.reload_us", Median(reload_us), "us");
  r.Set("serve.max_qps", max_qps, "1/s");
  r.Set("topk.us_per_user_b64", ProbeTopKUsPerUser(*snapshot, kTopK, opt.seed), "us");
}

int Main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto config = core::Config::FromArgs(args);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 2;
  }
  Options opt;
  opt.workload = config->GetString("workload", "");
  const int64_t seed = config->GetInt("seed", 1);
  opt.seconds = config->GetDouble("seconds", 8.0);
  opt.trace = config->GetBool("trace", false);
  opt.smoke = config->GetBool("smoke", false);
  opt.out = config->GetString("out", "e2e_" + opt.workload + ".json");
  opt.trace_out = config->GetString("trace_out", "trace_" + opt.workload + ".json");
  opt.work_dir = config->GetString(
      "work", "e2e_work_" + opt.workload + "_" + std::to_string(getpid()));
  const std::vector<std::string> workloads = {"darec_e2e", "lightgcn_dp",
                                              "web_serve", "web_overload"};
  if (std::find(workloads.begin(), workloads.end(), opt.workload) == workloads.end()) {
    std::fprintf(stderr,
                 "workload= must be one of darec_e2e, lightgcn_dp, web_serve, "
                 "web_overload (got '%s')\n",
                 opt.workload.c_str());
    return 2;
  }
  if (seed < 0 || !(opt.seconds > 0.0)) {
    std::fprintf(stderr, "seed= must be >= 0 and seconds= > 0\n");
    return 2;
  }
  opt.seed = static_cast<uint64_t>(seed);

  RunHeader header = MakeHeader();
  header.workload = opt.workload;
  header.seed = opt.seed;
  header.smoke = opt.smoke;
  header.trace = opt.trace;
  header.seconds = opt.seconds;
  Report report(std::move(header));
  Tracer tracer(opt.trace);
  report.PrintHeader();
  if (opt.trace) SetPerLayerDefaults(report);
  fs::create_directories(opt.work_dir);

  Run run{opt, report, tracer, core::Rng(opt.seed ^ 0xe2eull), {}, 0.0, 0, {}};
  if (opt.workload == "darec_e2e") {
    RunTraining(run, kDarecE2e);
  } else if (opt.workload == "lightgcn_dp") {
    RunTraining(run, kLightgcnDp);
  } else {
    RunWeb(run, opt.workload == "web_overload");
  }
  const double timed_wall = SecondsSince(run.timed_start);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (opt.trace) {
    report.Set("core.cpu_per_wall", (CpuSeconds() - run.cpu_start) / timed_wall, "ratio");
    report.Set("loadgen.requests", static_cast<double>(run.requests), "count");
    std::string self = "{";
    for (const auto& [name, seconds] : tracer.SelfSeconds()) {
      self += (self.size() > 1 ? ", " : "") + JsonStr(name) + ": " + JsonNum(seconds);
    }
    report.AddSection("trace", "{\"file\": " + JsonStr(opt.trace_out) +
                                   ", \"spans\": " + std::to_string(tracer.size()) +
                                   ", \"self_s\": " + self + "}}");
  }
  report.AddSection("phases", JsonList(run.phase_json));
  fs::remove_all(opt.work_dir);

  report.PrintResults();
  bool wrote = report.WriteJson(opt.out);
  if (opt.trace) wrote &= tracer.WriteChromeTrace(opt.trace_out);
  if (!wrote) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace darec::e2e

int main(int argc, char** argv) { return darec::e2e::Main(argc, argv); }
