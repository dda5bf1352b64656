#ifndef DAREC_BENCH_E2E_PROBES_H_
#define DAREC_BENCH_E2E_PROBES_H_

// The traced run's instruments. Every one of them times calls into a
// module's public functions from outside the library; nothing here reaches
// into src/. Splits the public surface cannot show (forward vs backward
// inside TrainStep::Execute, queue wait vs scoring inside the server) are
// left to in-library timers.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "cf/backbone.h"
#include "darec/darec.h"
#include "data/dataset.h"
#include "pipeline/observer.h"
#include "serve/snapshot.h"
#include "trace.h"

namespace darec::e2e {

/// Timestamps the staged train loop from its observer hooks: one span per
/// epoch, batch, periodic evaluation, checkpoint commit and the final
/// evaluation, all children of the caller's run span. A batch span runs
/// from the previous batch boundary to OnBatchEnd, so it covers sampling,
/// forward, backward and the optimizer apply.
class SpanObserver final : public pipeline::TrainObserver {
 public:
  SpanObserver(Tracer& tracer, int64_t run_span)
      : tracer_(tracer), run_span_(run_span) {}

  void OnRunBegin(const pipeline::TrainRunInfo& info) override;
  void OnEpochBegin(int64_t epoch) override;
  void OnBatchEnd(const pipeline::BatchEndEvent& event) override;
  void OnEpochEnd(const pipeline::EpochEndEvent& event) override;
  void OnEvalResult(const pipeline::EvalEvent& event) override;
  void OnCheckpointCommitted(const pipeline::CheckpointEvent& event) override;
  void OnRunEnd(const pipeline::RunEndEvent& event) override;

  /// The span id the batch now running will get (parent of aligner spans).
  int64_t open_batch_span() const {
    return open_batch_.load(std::memory_order_relaxed);
  }

  const std::vector<double>& epoch_s() const { return epoch_s_; }
  const std::vector<double>& batch_ms() const { return batch_ms_; }
  double eval_s() const { return eval_s_; }
  double ckpt_s() const { return ckpt_s_; }
  double final_s() const { return final_s_; }

 private:
  Tracer& tracer_;
  int64_t run_span_;
  int64_t epoch_span_ = 0;
  std::atomic<int64_t> open_batch_{0};
  Clock::time_point epoch_start_;
  Clock::time_point last_;  // end of the previous stage
  std::vector<double> epoch_s_;
  std::vector<double> batch_ms_;
  double eval_s_ = 0.0;
  double ckpt_s_ = 0.0;
  double final_s_ = 0.0;
};

/// Forwarding Aligner that times every Loss/LossWithState call. The loss
/// functions evaluate their forward values before returning, so a span
/// covers the aligner's forward pass; its backward runs inside the step's
/// one Backward call and is not separable from outside.
class TimingAligner final : public align::Aligner {
 public:
  TimingAligner(align::Aligner* inner, Tracer& tracer,
                const SpanObserver& observer)
      : inner_(inner), tracer_(tracer), observer_(observer) {}

  std::string name() const override { return inner_->name(); }
  tensor::Variable Loss(const tensor::Variable& nodes, core::Rng& rng) override;
  tensor::Variable LossWithState(const tensor::Variable& nodes, core::Rng& rng,
                                 std::vector<tensor::Matrix>* state) override;
  tensor::Variable AugmentNodes(const tensor::Variable& nodes) override {
    return inner_->AugmentNodes(nodes);
  }
  std::vector<tensor::Variable> Params() override { return inner_->Params(); }
  std::vector<tensor::Matrix> MutableState() const override {
    return inner_->MutableState();
  }
  core::Status RestoreMutableState(std::vector<tensor::Matrix> state) override {
    return inner_->RestoreMutableState(std::move(state));
  }

  /// Duration of every call so far, in milliseconds.
  std::vector<double> call_ms() const;

 private:
  void Record(Clock::time_point start, Clock::time_point end);

  align::Aligner* inner_;
  Tracer& tracer_;
  const SpanObserver& observer_;
  mutable std::mutex mu_;  // guards call_ms_ (data-parallel slots call concurrently)
  std::vector<double> call_ms_;
};

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> values);

/// Median over `reps` of the wall time of `fn`, in seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    seconds.push_back(std::chrono::duration<double>(Clock::now() - start).count());
  }
  return Median(std::move(seconds));
}

/// Mean microseconds per BatchIterator::NextBatch over one epoch of
/// `dataset`'s training split at `batch_size` (median of three epochs).
double ProbeSampleUsPerBatch(const data::Dataset& dataset, int64_t batch_size,
                             uint64_t seed);

struct BackboneProbe {
  double forward_ms = 0.0;
  double backward_ms = 0.0;
};
/// GraphBackbone::Forward(true) and Backward of the sum of its output
/// (medians of five). Leaves the backbone's gradients cleared.
BackboneProbe ProbeBackbone(cf::GraphBackbone& backbone, uint64_t seed);

/// Adam::Step over copies of `params`, with each copy's gradient set to its
/// value (median of five), in milliseconds.
double ProbeAdamStepMs(const std::vector<tensor::Variable>& params);

struct DaRecLossProbe {
  double orthogonality_ms = 0.0;
  double uniformity_ms = 0.0;
  double global_ms = 0.0;
  double local_ms = 0.0;
};
/// Each model::*Loss term forward plus tensor::Backward, on DaRecAligner::
/// Project views of N̂ sampled rows of `nodes` — the shapes and the global
/// form (softmax or Frobenius) the aligner's options select, both modalities
/// where the aligner sums two (medians of five).
DaRecLossProbe ProbeDaRecLosses(const model::DaRecAligner& darec,
                                const tensor::Matrix& nodes, uint64_t seed);

/// Microseconds per user of Engine::TopK on 64-user blocks of `snapshot`
/// (median of five blocks), k = `k`, serving mask.
double ProbeTopKUsPerUser(const serve::ModelSnapshot& snapshot, int64_t k,
                          uint64_t seed);

}  // namespace darec::e2e

#endif  // DAREC_BENCH_E2E_PROBES_H_
