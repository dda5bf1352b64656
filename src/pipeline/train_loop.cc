#include "pipeline/train_loop.h"

#include <cmath>
#include <limits>
#include <utility>

#include "ckpt/serialize.h"
#include "core/logging.h"
#include "core/stopwatch.h"

namespace darec::pipeline {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Version of the trainer's bundle section layout (bumped when the
/// serialized state changes shape; RestoreFromBundle rejects skew).
constexpr uint32_t kTrainerStateVersion = 1;

}  // namespace

Trainer::Trainer(cf::GraphBackbone* backbone, align::Aligner* aligner,
                 const data::Dataset* dataset, const TrainOptions& options)
    : backbone_(backbone),
      aligner_(aligner),
      dataset_(dataset),
      options_(options),
      rng_(options.seed),
      early_stopping_(options.eval_every, options.patience, options.eval_k) {
  DARE_CHECK(backbone != nullptr);
  DARE_CHECK(dataset != nullptr);
  DARE_CHECK_GT(options.epochs, 0);
  DARE_CHECK_GT(options.batch_size, 0);
  std::vector<tensor::Variable> params = backbone_->Params();
  if (aligner_ != nullptr) {
    std::vector<tensor::Variable> extra = aligner_->Params();
    params.insert(params.end(), extra.begin(), extra.end());
  }
  optimizer_ = std::make_unique<tensor::Adam>(std::move(params),
                                              options.learning_rate);
  if (options.train_store != nullptr) {
    batches_ = std::make_unique<data::BatchIterator>(*options.train_store,
                                                     options.batch_size, rng_);
  } else {
    batches_ = std::make_unique<data::BatchIterator>(*dataset_,
                                                     options.batch_size, rng_);
  }
  step_ = std::make_unique<TrainStep>(backbone_, aligner_, optimizer_.get(),
                                      options.align_interval);
  DARE_CHECK_GE(options.workers, 1);
  DARE_CHECK_GE(options.grad_accum, 0);
  const int64_t grad_accum =
      options.grad_accum > 0 ? options.grad_accum : options.workers;
  if (options.workers > 1 || grad_accum > 1) {
    // step_ stays the owner of the step counter and the checkpoint/eval
    // surface; the executor drives the per-batch work.
    executor_ = std::make_unique<ParallelStepExecutor>(
        backbone_, aligner_, optimizer_.get(), options.align_interval,
        options.workers, grad_accum);
  }
  if (!options.checkpoint_dir.empty()) {
    ckpt::CheckpointManagerOptions checkpoint_options;
    checkpoint_options.dir = options.checkpoint_dir;
    checkpoint_options.keep_last = options.keep_last_checkpoints;
    checkpoint_options.sharded = options.sharded_checkpoints;
    checkpoints_ = std::make_unique<ckpt::CheckpointManager>(checkpoint_options);
  }
  if (options.verbose) {
    verbose_observer_ = std::make_unique<LoggingObserver>();
    observers_.Add(verbose_observer_.get());
  }
}

void Trainer::AddObserver(TrainObserver* observer) { observers_.Add(observer); }

double Trainer::RunEpoch() {
  if (executor_ != nullptr) return RunEpochParallel();
  const int64_t epoch = epochs_completed_ + 1;
  batches_->NewEpoch(rng_);
  double epoch_loss = 0.0;
  int64_t epoch_batches = 0;
  std::vector<data::TrainTriple> batch;
  while (batches_->NextBatch(batch, rng_)) {
    const TrainStep::Outcome outcome = step_->Execute(batch, rng_);
    // Divergence guard: abort the epoch before the poisoned update is
    // applied; Run() decides whether to roll back to a checkpoint.
    if (!outcome.finite) return kNan;

    epoch_loss += outcome.loss;
    BatchEndEvent event;
    event.epoch = epoch;
    event.batch_index = epoch_batches;
    event.step = step_->step_count();
    event.loss = outcome.loss;
    event.bpr_loss = outcome.bpr_loss;
    event.reg_loss = outcome.reg_loss;
    event.ssl_loss = outcome.ssl_loss;
    event.align_loss = outcome.align_loss;
    observers_.OnBatchEnd(event);
    ++epoch_batches;
  }
  return epoch_batches > 0 ? epoch_loss / static_cast<double>(epoch_batches) : 0.0;
}

double Trainer::RunEpochParallel() {
  const int64_t epoch = epochs_completed_ + 1;
  const int64_t k = executor_->grad_accum();
  batches_->NewEpoch(rng_);
  double epoch_loss = 0.0;
  int64_t epoch_batches = 0;
  std::vector<std::vector<data::TrainTriple>> group(k);
  for (;;) {
    // Batches (and their negative samples) are drawn serially from the main
    // rng, exactly like the serial path — the group boundary is the only
    // difference.
    int64_t count = 0;
    while (count < k && batches_->NextBatch(group[count], rng_)) ++count;
    if (count == 0) break;

    const int64_t step_before = step_->step_count();
    const ParallelStepExecutor::SuperStepResult result =
        executor_->Execute(group, count, rng_, step_before);
    // step_ owns the counter the checkpoints serialize; mirror the
    // super-step's advance into it.
    step_->set_step_count(step_before + result.steps_advanced);
    if (!result.applied) return kNan;

    for (int64_t s = 0; s < count; ++s) {
      const TrainStep::Outcome& outcome = result.outcomes[s];
      epoch_loss += outcome.loss;
      BatchEndEvent event;
      event.epoch = epoch;
      event.batch_index = epoch_batches;
      event.step = step_before + s + 1;
      event.loss = outcome.loss;
      event.bpr_loss = outcome.bpr_loss;
      event.reg_loss = outcome.reg_loss;
      event.ssl_loss = outcome.ssl_loss;
      event.align_loss = outcome.align_loss;
      observers_.OnBatchEnd(event);
      ++epoch_batches;
    }
  }
  return epoch_batches > 0 ? epoch_loss / static_cast<double>(epoch_batches) : 0.0;
}

tensor::Matrix Trainer::CurrentEmbeddings() {
  tensor::Matrix nodes = backbone_->InferenceEmbeddings();
  if (aligner_ == nullptr) return nodes;
  tensor::Variable augmented =
      aligner_->AugmentNodes(tensor::Variable::Constant(std::move(nodes)));
  return augmented.value();
}

eval::MetricSet Trainer::Evaluate(eval::EvalSplit split) {
  eval::EvalOptions eval_options;
  eval_options.split = split;
  return eval::EvaluateRanking(CurrentEmbeddings(), *dataset_, eval_options);
}

ckpt::Bundle Trainer::MakeBundle() const {
  ckpt::Bundle bundle;
  const std::vector<tensor::Variable>& params = optimizer_->params();
  {
    ckpt::ByteWriter meta;
    meta.PutU32(kTrainerStateVersion);
    meta.PutString(backbone_->name());
    meta.PutString(aligner_ != nullptr ? aligner_->name() : "");
    meta.PutI64(epochs_completed_);
    meta.PutI64(step_->step_count());
    meta.PutF32(optimizer_->learning_rate());
    meta.PutU64(params.size());
    meta.PutI64(batches_->num_interactions());
    bundle.Put("meta", meta.Release());
  }
  {
    ckpt::ByteWriter values;
    values.PutU64(params.size());
    for (const tensor::Variable& p : params) values.PutMatrix(p.value());
    bundle.Put("params", values.Release());
  }
  {
    ckpt::ByteWriter adam;
    adam.PutI64(optimizer_->step_count());
    adam.PutU64(params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      adam.PutMatrix(optimizer_->first_moments()[i]);
      adam.PutMatrix(optimizer_->second_moments()[i]);
    }
    bundle.Put("adam", adam.Release());
  }
  {
    // Aligner-side non-parameter state (e.g. DaRec's warm-start centers).
    const std::vector<tensor::Matrix> state =
        aligner_ != nullptr ? aligner_->MutableState()
                            : std::vector<tensor::Matrix>{};
    ckpt::ByteWriter aligner_state;
    aligner_state.PutU64(state.size());
    for (const tensor::Matrix& m : state) aligner_state.PutMatrix(m);
    bundle.Put("aligner_state", aligner_state.Release());
  }
  {
    const core::RngState state = rng_.SaveState();
    ckpt::ByteWriter rng;
    rng.PutU64(state.state);
    rng.PutU8(state.have_cached_normal ? 1 : 0);
    rng.PutF64(state.cached_normal);
    bundle.Put("rng", rng.Release());
  }
  {
    ckpt::ByteWriter sampler;
    sampler.PutI64Vector(batches_->order());
    bundle.Put("sampler", sampler.Release());
  }
  {
    ckpt::ByteWriter history;
    history.PutF64Vector(epoch_losses_);
    bundle.Put("history", history.Release());
  }
  {
    ckpt::ByteWriter early;
    early_stopping_.AppendState(early);
    bundle.Put("earlystop", early.Release());
  }
  return bundle;
}

core::Status Trainer::RestoreFromBundle(const ckpt::Bundle& bundle) {
  const std::vector<tensor::Variable>& params = optimizer_->params();

  // ---- Stage + validate. Nothing below mutates the trainer. ----
  DARE_ASSIGN_OR_RETURN(std::string_view meta_bytes, bundle.Get("meta"));
  ckpt::ByteReader meta(meta_bytes);
  DARE_ASSIGN_OR_RETURN(uint32_t state_version, meta.GetU32());
  if (state_version != kTrainerStateVersion) {
    return core::Status::FailedPrecondition("unsupported trainer state version " +
                                            std::to_string(state_version));
  }
  DARE_ASSIGN_OR_RETURN(std::string backbone_name, meta.GetString());
  DARE_ASSIGN_OR_RETURN(std::string aligner_name, meta.GetString());
  const std::string expected_aligner = aligner_ != nullptr ? aligner_->name() : "";
  if (backbone_name != backbone_->name() || aligner_name != expected_aligner) {
    return core::Status::FailedPrecondition(
        "checkpoint is for " + backbone_name + "+" + aligner_name + ", trainer is " +
        backbone_->name() + "+" + expected_aligner);
  }
  DARE_ASSIGN_OR_RETURN(int64_t epochs_completed, meta.GetI64());
  DARE_ASSIGN_OR_RETURN(int64_t step_count, meta.GetI64());
  DARE_ASSIGN_OR_RETURN(float learning_rate, meta.GetF32());
  DARE_ASSIGN_OR_RETURN(uint64_t num_params, meta.GetU64());
  DARE_ASSIGN_OR_RETURN(int64_t train_size, meta.GetI64());
  DARE_RETURN_IF_ERROR(meta.ExpectEnd());
  if (epochs_completed < 0 || step_count < 0 || !std::isfinite(learning_rate) ||
      learning_rate <= 0.0f) {
    return core::Status::FailedPrecondition("implausible trainer counters");
  }
  if (num_params != params.size()) {
    return core::Status::FailedPrecondition(
        "checkpoint has " + std::to_string(num_params) + " params, trainer has " +
        std::to_string(params.size()));
  }
  if (train_size != batches_->num_interactions()) {
    return core::Status::FailedPrecondition(
        "checkpoint was written for a dataset with " + std::to_string(train_size) +
        " training interactions, this dataset has " +
        std::to_string(batches_->num_interactions()));
  }

  DARE_ASSIGN_OR_RETURN(std::string_view params_bytes, bundle.Get("params"));
  ckpt::ByteReader params_reader(params_bytes);
  DARE_ASSIGN_OR_RETURN(uint64_t value_count, params_reader.GetU64());
  if (value_count != params.size()) {
    return core::Status::FailedPrecondition("params section count mismatch");
  }
  std::vector<tensor::Matrix> values;
  values.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    DARE_ASSIGN_OR_RETURN(tensor::Matrix value, params_reader.GetMatrix());
    if (!value.SameShape(params[i].value())) {
      return core::Status::FailedPrecondition("param " + std::to_string(i) +
                                              " shape mismatch");
    }
    values.push_back(std::move(value));
  }
  DARE_RETURN_IF_ERROR(params_reader.ExpectEnd());

  DARE_ASSIGN_OR_RETURN(std::string_view adam_bytes, bundle.Get("adam"));
  ckpt::ByteReader adam_reader(adam_bytes);
  DARE_ASSIGN_OR_RETURN(int64_t adam_steps, adam_reader.GetI64());
  DARE_ASSIGN_OR_RETURN(uint64_t moment_count, adam_reader.GetU64());
  if (adam_steps < 0 || moment_count != params.size()) {
    return core::Status::FailedPrecondition("adam section count mismatch");
  }
  std::vector<tensor::Matrix> first_moments, second_moments;
  first_moments.reserve(params.size());
  second_moments.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    DARE_ASSIGN_OR_RETURN(tensor::Matrix first, adam_reader.GetMatrix());
    DARE_ASSIGN_OR_RETURN(tensor::Matrix second, adam_reader.GetMatrix());
    if (!first.SameShape(params[i].value()) || !second.SameShape(params[i].value())) {
      return core::Status::FailedPrecondition("adam moment " + std::to_string(i) +
                                              " shape mismatch");
    }
    first_moments.push_back(std::move(first));
    second_moments.push_back(std::move(second));
  }
  DARE_RETURN_IF_ERROR(adam_reader.ExpectEnd());

  DARE_ASSIGN_OR_RETURN(std::string_view aligner_bytes, bundle.Get("aligner_state"));
  ckpt::ByteReader aligner_reader(aligner_bytes);
  DARE_ASSIGN_OR_RETURN(uint64_t aligner_state_count, aligner_reader.GetU64());
  const size_t expected_state =
      aligner_ != nullptr ? aligner_->MutableState().size() : 0;
  if (aligner_state_count != expected_state) {
    return core::Status::FailedPrecondition("aligner state count mismatch");
  }
  std::vector<tensor::Matrix> aligner_state;
  aligner_state.reserve(aligner_state_count);
  for (uint64_t i = 0; i < aligner_state_count; ++i) {
    DARE_ASSIGN_OR_RETURN(tensor::Matrix m, aligner_reader.GetMatrix());
    aligner_state.push_back(std::move(m));
  }
  DARE_RETURN_IF_ERROR(aligner_reader.ExpectEnd());

  DARE_ASSIGN_OR_RETURN(std::string_view rng_bytes, bundle.Get("rng"));
  ckpt::ByteReader rng_reader(rng_bytes);
  core::RngState rng_state;
  DARE_ASSIGN_OR_RETURN(rng_state.state, rng_reader.GetU64());
  DARE_ASSIGN_OR_RETURN(uint8_t have_cached, rng_reader.GetU8());
  DARE_ASSIGN_OR_RETURN(rng_state.cached_normal, rng_reader.GetF64());
  DARE_RETURN_IF_ERROR(rng_reader.ExpectEnd());
  rng_state.have_cached_normal = have_cached != 0;

  DARE_ASSIGN_OR_RETURN(std::string_view sampler_bytes, bundle.Get("sampler"));
  ckpt::ByteReader sampler_reader(sampler_bytes);
  DARE_ASSIGN_OR_RETURN(std::vector<int64_t> order, sampler_reader.GetI64Vector());
  DARE_RETURN_IF_ERROR(sampler_reader.ExpectEnd());

  DARE_ASSIGN_OR_RETURN(std::string_view history_bytes, bundle.Get("history"));
  ckpt::ByteReader history_reader(history_bytes);
  DARE_ASSIGN_OR_RETURN(std::vector<double> losses, history_reader.GetF64Vector());
  DARE_RETURN_IF_ERROR(history_reader.ExpectEnd());

  DARE_ASSIGN_OR_RETURN(std::string_view early_bytes, bundle.Get("earlystop"));
  ckpt::ByteReader early_reader(early_bytes);
  DARE_ASSIGN_OR_RETURN(EarlyStopping::State early_state,
                        EarlyStopping::ParseState(early_reader));
  DARE_RETURN_IF_ERROR(early_reader.ExpectEnd());

  // ---- Apply. RestoreOrder is the only remaining fallible step and it
  // mutates nothing on failure, so the trainer is never half-restored. ----
  DARE_RETURN_IF_ERROR(batches_->RestoreOrder(std::move(order)));
  for (size_t i = 0; i < params.size(); ++i) {
    tensor::Variable p = params[i];
    p.mutable_value() = std::move(values[i]);
    p.ClearGrad();
  }
  const core::Status adam_status = optimizer_->RestoreState(
      adam_steps, std::move(first_moments), std::move(second_moments));
  DARE_CHECK(adam_status.ok()) << adam_status.ToString();  // Shapes pre-validated.
  if (aligner_ != nullptr) {
    const core::Status aligner_status =
        aligner_->RestoreMutableState(std::move(aligner_state));
    DARE_CHECK(aligner_status.ok()) << aligner_status.ToString();  // Count checked.
  }
  optimizer_->set_learning_rate(learning_rate);
  rng_.RestoreState(rng_state);
  epochs_completed_ = epochs_completed;
  step_->set_step_count(step_count);
  epoch_losses_ = std::move(losses);
  early_stopping_.Restore(std::move(early_state));
  return core::Status::Ok();
}

core::Status Trainer::SaveCheckpoint() {
  if (checkpoints_ == nullptr) {
    return core::Status::FailedPrecondition(
        "checkpointing disabled: TrainOptions.checkpoint_dir is empty");
  }
  return checkpoints_->Save(epochs_completed_, MakeBundle());
}

core::Status Trainer::RestoreCheckpoint() {
  if (checkpoints_ == nullptr) {
    return core::Status::FailedPrecondition(
        "checkpointing disabled: TrainOptions.checkpoint_dir is empty");
  }
  const std::vector<ckpt::CheckpointEntry> entries = checkpoints_->List();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    core::StatusOr<ckpt::Bundle> bundle = checkpoints_->LoadPath(it->path);
    const core::Status restored =
        bundle.ok() ? RestoreFromBundle(*bundle) : bundle.status();
    if (restored.ok()) {
      if (options_.verbose) {
        DARE_LOG(Info) << "restored checkpoint " << it->path << " (epoch "
                       << epochs_completed_ << ", step " << step_->step_count()
                       << ")";
      }
      return core::Status::Ok();
    }
    DARE_LOG(Warning) << "skipping checkpoint " << it->path << ": "
                      << restored.ToString();
  }
  return core::Status::NotFound("no restorable checkpoint under " +
                                options_.checkpoint_dir);
}

void Trainer::CommitCheckpoint() {
  const core::Status saved = SaveCheckpoint();
  if (!saved.ok()) {
    // Training carries on from memory; only crash protection degrades.
    DARE_LOG(Warning) << "checkpoint at epoch " << epochs_completed_
                      << " failed: " << saved.ToString();
  }
  CheckpointEvent event;
  event.epoch = epochs_completed_;
  event.path = checkpoints_->PathForStep(epochs_completed_);
  event.ok = saved.ok();
  if (!saved.ok()) event.error = saved.ToString();
  observers_.OnCheckpointCommitted(event);
}

TrainResult Trainer::Run() {
  core::Stopwatch stopwatch;
  TrainResult result;
  CheckpointPolicy checkpoint_policy(checkpoints_ != nullptr,
                                     options_.checkpoint_every);
  DivergenceGuard guard(options_.lr_backoff, options_.max_divergence_retries);

  if (options_.resume && checkpoints_ != nullptr) {
    const core::Status restored = RestoreCheckpoint();
    if (!restored.ok() && restored.code() != core::StatusCode::kNotFound) {
      DARE_LOG(Warning) << "resume requested but restore failed: "
                        << restored.ToString();
    }
  }

  TrainRunInfo info;
  info.backbone = backbone_->name();
  info.aligner = aligner_ != nullptr ? aligner_->name() : "";
  info.start_epoch = epochs_completed_;
  info.total_epochs = options_.epochs;
  info.batches_per_epoch = batches_->batches_per_epoch();
  info.learning_rate = optimizer_->learning_rate();
  observers_.OnRunBegin(info);

  if (checkpoint_policy.ShouldSaveInitial(
          checkpoints_ != nullptr && !checkpoints_->List().empty())) {
    // Initial checkpoint so divergence recovery always has a rollback target.
    CommitCheckpoint();
  }

  bool stopped_early = false;
  while (epochs_completed_ < options_.epochs) {
    observers_.OnEpochBegin(epochs_completed_ + 1);
    core::Stopwatch epoch_watch;
    const double mean_loss = RunEpoch();

    if (!std::isfinite(mean_loss)) {
      // Divergence: roll back to the last good checkpoint with a smaller
      // step size instead of letting NaN poison the remaining epochs.
      if (checkpoints_ != nullptr && guard.CanRetry()) {
        const int64_t failed_epoch = epochs_completed_ + 1;
        const core::Status restored = RestoreCheckpoint();
        if (restored.ok()) {
          const float lr = optimizer_->learning_rate() * guard.RegisterRetry();
          optimizer_->set_learning_rate(lr);
          result.divergence_recoveries = guard.retries();
          DARE_LOG(Warning) << backbone_->name() << ": non-finite loss at epoch "
                            << failed_epoch << "; restored epoch "
                            << epochs_completed_ << ", lr backed off to " << lr
                            << " (retry " << guard.retries() << "/"
                            << guard.max_retries() << ")";
          RollbackEvent event;
          event.failed_epoch = failed_epoch;
          event.restored_epoch = epochs_completed_;
          event.retry = guard.retries();
          event.max_retries = guard.max_retries();
          event.new_learning_rate = lr;
          observers_.OnDivergenceRollback(event);
          continue;
        }
        DARE_LOG(Error) << "divergence recovery failed: " << restored.ToString();
      }
      DARE_LOG(Error) << backbone_->name() << ": training diverged at epoch "
                      << epochs_completed_ + 1 << " and cannot recover ("
                      << (checkpoints_ == nullptr ? "checkpointing disabled"
                                                  : "retries exhausted")
                      << ")";
      epoch_losses_.push_back(mean_loss);
      result.diverged = true;
      break;
    }

    ++epochs_completed_;
    epoch_losses_.push_back(mean_loss);
    EpochEndEvent epoch_event;
    epoch_event.epoch = epochs_completed_;
    epoch_event.mean_loss = mean_loss;
    epoch_event.batches = batches_->batches_per_epoch();
    epoch_event.seconds = epoch_watch.ElapsedSeconds();
    epoch_event.learning_rate = optimizer_->learning_rate();
    observers_.OnEpochEnd(epoch_event);

    bool stop_early = false;
    if (early_stopping_.ShouldEvaluate(epochs_completed_)) {
      eval::EvalOptions eval_options;
      eval_options.ks = {early_stopping_.eval_k()};
      eval_options.split = eval::EvalSplit::kValidation;
      tensor::Matrix embeddings = CurrentEmbeddings();
      const double validation =
          eval::EvaluateRanking(embeddings, *dataset_, eval_options)
              .recall.at(early_stopping_.eval_k());
      const EarlyStopping::Decision decision =
          early_stopping_.Observe(validation, std::move(embeddings));
      stop_early = decision.stop;
      EvalEvent eval_event;
      eval_event.epoch = epochs_completed_;
      eval_event.k = early_stopping_.eval_k();
      eval_event.validation_recall = validation;
      eval_event.best_so_far = early_stopping_.best_validation();
      eval_event.improved = decision.improved;
      eval_event.stopped = decision.stop;
      observers_.OnEvalResult(eval_event);
    }

    if (checkpoint_policy.ShouldSave(epochs_completed_)) CommitCheckpoint();
    if (stop_early) {
      stopped_early = true;
      break;
    }
  }

  result.epoch_losses = epoch_losses_;
  result.final_embeddings =
      early_stopping_.enabled() && early_stopping_.has_best()
          ? early_stopping_.best_embeddings()
          : CurrentEmbeddings();
  eval::EvalOptions eval_options;
  result.test_metrics =
      eval::EvaluateRanking(result.final_embeddings, *dataset_, eval_options);
  eval_options.split = eval::EvalSplit::kValidation;
  result.validation_metrics =
      eval::EvaluateRanking(result.final_embeddings, *dataset_, eval_options);
  result.train_seconds = stopwatch.ElapsedSeconds();

  RunEndEvent end_event;
  end_event.epochs_completed = epochs_completed_;
  end_event.stopped_early = stopped_early;
  end_event.diverged = result.diverged;
  end_event.seconds = result.train_seconds;
  observers_.OnRunEnd(end_event);
  return result;
}

}  // namespace darec::pipeline
