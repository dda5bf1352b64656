#include "probes.h"

#include <algorithm>

#include "darec/losses.h"
#include "data/sampler.h"
#include "tensor/ops.h"
#include "tensor/optim.h"

namespace darec::e2e {

namespace {

double Ms(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// --- SpanObserver ------------------------------------------------------------

void SpanObserver::OnRunBegin(const pipeline::TrainRunInfo& info) {
  (void)info;
  last_ = Clock::now();
}

void SpanObserver::OnEpochBegin(int64_t epoch) {
  (void)epoch;
  epoch_start_ = Clock::now();
  last_ = epoch_start_;
  epoch_span_ = tracer_.NewId();
  open_batch_.store(tracer_.NewId(), std::memory_order_relaxed);
}

void SpanObserver::OnBatchEnd(const pipeline::BatchEndEvent& event) {
  (void)event;
  const Clock::time_point now = Clock::now();
  tracer_.Add("batch", open_batch_.load(std::memory_order_relaxed), epoch_span_,
              last_, now, 1);
  batch_ms_.push_back(Ms(last_, now));
  last_ = now;
  open_batch_.store(tracer_.NewId(), std::memory_order_relaxed);
}

void SpanObserver::OnEpochEnd(const pipeline::EpochEndEvent& event) {
  (void)event;
  const Clock::time_point now = Clock::now();
  tracer_.Add("epoch", epoch_span_, run_span_, epoch_start_, now, 0);
  epoch_s_.push_back(Ms(epoch_start_, now) * 1e-3);
  last_ = now;
}

void SpanObserver::OnEvalResult(const pipeline::EvalEvent& event) {
  (void)event;
  const Clock::time_point now = Clock::now();
  tracer_.Add("eval", tracer_.NewId(), run_span_, last_, now, 0);
  eval_s_ += Ms(last_, now) * 1e-3;
  last_ = now;
}

void SpanObserver::OnCheckpointCommitted(const pipeline::CheckpointEvent& event) {
  (void)event;
  const Clock::time_point now = Clock::now();
  tracer_.Add("checkpoint", tracer_.NewId(), run_span_, last_, now, 0);
  ckpt_s_ += Ms(last_, now) * 1e-3;
  last_ = now;
}

void SpanObserver::OnRunEnd(const pipeline::RunEndEvent& event) {
  (void)event;
  const Clock::time_point now = Clock::now();
  tracer_.Add("final_eval", tracer_.NewId(), run_span_, last_, now, 0);
  final_s_ = Ms(last_, now) * 1e-3;
  last_ = now;
}

// --- TimingAligner -------------------------------------------------------------

tensor::Variable TimingAligner::Loss(const tensor::Variable& nodes, core::Rng& rng) {
  const Clock::time_point start = Clock::now();
  tensor::Variable loss = inner_->Loss(nodes, rng);
  Record(start, Clock::now());
  return loss;
}

tensor::Variable TimingAligner::LossWithState(const tensor::Variable& nodes,
                                              core::Rng& rng,
                                              std::vector<tensor::Matrix>* state) {
  const Clock::time_point start = Clock::now();
  tensor::Variable loss = inner_->LossWithState(nodes, rng, state);
  Record(start, Clock::now());
  return loss;
}

void TimingAligner::Record(Clock::time_point start, Clock::time_point end) {
  tracer_.Add("align", tracer_.NewId(), observer_.open_batch_span(), start, end, 1);
  std::lock_guard<std::mutex> lock(mu_);
  call_ms_.push_back(Ms(start, end));
}

std::vector<double> TimingAligner::call_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return call_ms_;
}

// --- Standalone layer probes -------------------------------------------------

double ProbeSampleUsPerBatch(const data::Dataset& dataset, int64_t batch_size,
                             uint64_t seed) {
  core::Rng rng(seed);
  data::BatchIterator iterator(dataset, batch_size, rng);
  std::vector<data::TrainTriple> batch;
  std::vector<double> us_per_batch;
  for (int epoch = 0; epoch < 3; ++epoch) {
    iterator.NewEpoch(rng);
    int64_t batches = 0;
    const Clock::time_point start = Clock::now();
    while (iterator.NextBatch(batch, rng)) ++batches;
    us_per_batch.push_back(Ms(start, Clock::now()) * 1e3 /
                           static_cast<double>(std::max<int64_t>(1, batches)));
  }
  return Median(std::move(us_per_batch));
}

BackboneProbe ProbeBackbone(cf::GraphBackbone& backbone, uint64_t seed) {
  core::Rng rng(seed);
  // The trainer builds each step inside a GraphContext; so does the probe,
  // or it would time the slower allocate-per-op path.
  tensor::GraphContext context;
  std::vector<double> forward_ms, backward_ms;
  for (int rep = 0; rep < 5; ++rep) {
    {
      tensor::GraphContext::Scope scope(&context);
      const Clock::time_point t0 = Clock::now();
      tensor::Variable nodes = backbone.Forward(/*training=*/true, rng);
      const Clock::time_point t1 = Clock::now();
      tensor::Variable total = tensor::Sum(nodes);
      const Clock::time_point t2 = Clock::now();
      tensor::Backward(total);
      const Clock::time_point t3 = Clock::now();
      forward_ms.push_back(Ms(t0, t1));
      backward_ms.push_back(Ms(t2, t3));
    }
    context.Reset();
    for (tensor::Variable& p : backbone.Params()) p.ClearGrad();
  }
  return {Median(std::move(forward_ms)), Median(std::move(backward_ms))};
}

double ProbeAdamStepMs(const std::vector<tensor::Variable>& params) {
  std::vector<tensor::Variable> copies;
  for (const tensor::Variable& p : params) {
    tensor::Variable copy = tensor::Variable::Parameter(p.value());
    copy.node()->AccumulateGrad(p.value());
    copies.push_back(copy);
  }
  tensor::Adam adam(copies, 1e-3f);
  return MedianSeconds(5, [&] { adam.Step(); }) * 1e3;
}

DaRecLossProbe ProbeDaRecLosses(const model::DaRecAligner& darec,
                                const tensor::Matrix& nodes, uint64_t seed) {
  using tensor::Variable;
  const model::DaRecOptions& o = darec.options();
  core::Rng rng(seed);
  const int64_t n = std::min<int64_t>(o.sample_size, nodes.rows());
  const model::DisentangledViews views =
      darec.Project(nodes, rng.SampleWithoutReplacement(nodes.rows(), n));
  const int64_t m = std::min<int64_t>(o.uniformity_sample, n);

  // Fresh leaves per repetition, so every Backward starts from empty
  // gradients, inside a GraphContext like a training step.
  auto time_ms = [&](auto&& loss_of) {
    tensor::GraphContext context;
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      {
        tensor::GraphContext::Scope scope(&context);
        Variable cf_shared = Variable::Parameter(views.cf_shared.value());
        Variable cf_specific = Variable::Parameter(views.cf_specific.value());
        Variable llm_shared = Variable::Parameter(views.llm_shared.value());
        Variable llm_specific = Variable::Parameter(views.llm_specific.value());
        const Clock::time_point start = Clock::now();
        Variable loss = loss_of(cf_shared, cf_specific, llm_shared, llm_specific);
        tensor::Backward(loss);
        ms.push_back(Ms(start, Clock::now()));
      }
      context.Reset();
    }
    return Median(std::move(ms));
  };

  DaRecLossProbe probe;
  probe.orthogonality_ms = time_ms([](const Variable& cs, const Variable& csp,
                                      const Variable& ls, const Variable& lsp) {
    return tensor::Add(model::OrthogonalityLoss(csp, cs),
                       model::OrthogonalityLoss(lsp, ls));
  });
  if (m > 1) {
    probe.uniformity_ms = time_ms([m](const Variable&, const Variable& csp,
                                      const Variable&, const Variable& lsp) {
      return tensor::Add(model::UniformityLoss(tensor::SliceRows(csp, 0, m)),
                         model::UniformityLoss(tensor::SliceRows(lsp, 0, m)));
    });
  }
  probe.global_ms = time_ms([&o](const Variable& cs, const Variable&,
                                 const Variable& ls, const Variable&) {
    return o.global_softmax_tau > 0.0f
               ? model::GlobalStructureLossSoftmax(cs, ls, o.global_softmax_tau)
               : model::GlobalStructureLoss(cs, ls);
  });
  probe.local_ms = time_ms([&o, &rng](const Variable& cs, const Variable&,
                                      const Variable& ls, const Variable&) {
    model::LocalAlignState state;
    return model::LocalStructureLoss(cs, ls, o.num_clusters, o.matching,
                                     o.kmeans_iterations, rng, &state);
  });
  return probe;
}

double ProbeTopKUsPerUser(const serve::ModelSnapshot& snapshot, int64_t k,
                          uint64_t seed) {
  core::Rng rng(seed);
  const topk::SeenItemsFn seen = [&snapshot](int64_t user) {
    return snapshot.SeenOf(user);
  };
  std::vector<double> us;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<int64_t> users(64);
    for (int64_t& u : users) u = rng.UniformInt(snapshot.num_users());
    const Clock::time_point start = Clock::now();
    const auto lists = snapshot.engine().TopK(users, k, seen, topk::MaskMode::kDrop);
    us.push_back(Ms(start, Clock::now()) * 1e3 / static_cast<double>(lists.size()));
  }
  return Median(std::move(us));
}

}  // namespace darec::e2e
