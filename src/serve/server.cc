#include "serve/server.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "core/check.h"
#include "core/failpoint.h"
#include "core/logging.h"

namespace darec::serve {

ServerOptions Server::Validate(ServerOptions options) {
  bool clamped = false;
  if (options.max_batch < 1) {
    options.max_batch = 1;
    clamped = true;
  }
  if (options.flush_deadline_us < 0) {
    options.flush_deadline_us = 0;
    clamped = true;
  }
  if (clamped) {
    DARE_LOG(Warning) << "serve::Server: out-of-range options clamped to "
                      << "max_batch=" << options.max_batch
                      << " flush_deadline_us=" << options.flush_deadline_us;
  }
  // Nonsensical combinations are programmer errors, not clamps: a bounded
  // queue smaller than one batch means the size trigger can never fire.
  if (options.max_queue > 0) {
    DARE_CHECK_GE(options.max_queue, options.max_batch)
        << "ServerOptions::max_queue must admit at least one full batch";
  }
  OverloadOptions& o = options.overload;
  if (o.enabled) {
    const bool any_unset = o.degrade_enter < 0 || o.degrade_exit < 0 ||
                           o.shed_enter < 0 || o.shed_exit < 0;
    if (options.max_queue <= 0 && any_unset) {
      // Nothing to derive watermarks from; an unbounded queue with no
      // explicit watermarks means the caller opted out of overload control.
      o.enabled = false;
      DARE_LOG(Warning) << "serve::Server: degradation ladder disabled "
                        << "(max_queue unbounded and watermarks unset)";
    } else {
      const int64_t q = options.max_queue;
      if (o.degrade_enter < 0) o.degrade_enter = std::max<int64_t>(1, q / 2);
      if (o.degrade_exit < 0) o.degrade_exit = q / 8;
      if (o.shed_enter < 0) {
        o.shed_enter = std::max(o.degrade_enter, 3 * q / 4);
      }
      if (o.shed_exit < 0) o.shed_exit = q / 4;
      // The ladder is only a ladder if the bands nest: exits strictly below
      // their enters (hysteresis), degrade strictly below shed.
      DARE_CHECK_LT(o.degrade_exit, o.degrade_enter)
          << "degrade watermarks must leave a hysteresis band";
      DARE_CHECK_LT(o.shed_exit, o.shed_enter)
          << "shed watermarks must leave a hysteresis band";
      DARE_CHECK_LE(o.degrade_enter, o.shed_enter)
          << "the ladder degrades before it sheds";
      DARE_CHECK_LE(o.degrade_exit, o.shed_exit)
          << "recovery passes through Degraded before Healthy";
    }
  }
  return options;
}

Server::Server(std::shared_ptr<const ModelSnapshot> snapshot,
               const ServerOptions& options)
    : options_(Validate(options)), controller_(options_.overload) {
  DARE_CHECK(snapshot != nullptr) << "Server needs an initial snapshot";
  snapshot_ = std::move(snapshot);
  flusher_ = std::thread([this] { FlusherLoop(); });
}

Server::~Server() { Stop(); }

std::future<core::StatusOr<TopKResult>> Server::SubmitTopK(int64_t user,
                                                           int64_t k,
                                                           int64_t timeout_us) {
  // The unified k contract (serve::Recommender): non-positive k is rejected
  // up front — it never occupies a batch slot.
  if (k <= 0) {
    std::promise<core::StatusOr<TopKResult>> rejected;
    rejected.set_value(core::Status::InvalidArgument("k must be positive"));
    return rejected.get_future();
  }
  Pending pending;
  pending.user = user;
  pending.k = k;
  pending.enqueued = std::chrono::steady_clock::now();
  if (timeout_us != 0) {
    pending.has_deadline = true;
    pending.deadline =
        pending.enqueued + std::chrono::microseconds(std::max<int64_t>(
                               0, timeout_us));
  }
  std::future<core::StatusOr<TopKResult>> future =
      pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      pending.promise.set_value(
          core::Status::FailedPrecondition("server is stopped"));
      return future;
    }
    // Admission-time deadline enforcement: a request submitted with its
    // budget already spent (timeout_us < 0 — e.g. a retry loop out of
    // time) expires here, without ever occupying a queue slot.
    if (timeout_us < 0) {
      ++stats_.shed_deadline;
      pending.promise.set_value(core::Status::DeadlineExceeded(
          "deadline expired before admission"));
      return future;
    }
    // One ladder observation per admission attempt: the depth BEFORE this
    // request is pushed. Every transition is a pure function of the
    // sequence of observed depths.
    const int64_t depth = static_cast<int64_t>(queue_.size());
    const LoadState state = controller_.Observe(depth);
    const bool full = options_.max_queue > 0 && depth >= options_.max_queue;
    if (state == LoadState::kShedding || full) {
      ++stats_.shed_admission;
      pending.promise.set_value(core::Status::ResourceExhausted(
          full ? "queue full (" + std::to_string(depth) + " pending)"
               : "server is shedding load (" + std::to_string(depth) +
                     " pending)"));
      return future;
    }
    queue_.push_back(std::move(pending));
    ++stats_.submitted;
    stats_.peak_pending = std::max(stats_.peak_pending, depth + 1);
  }
  // The flusher is the only cv_ waiter (see the member comment), so one
  // wakeup per submit is enough — notify_all would only add syscalls.
  cv_.notify_one();
  return future;
}

void Server::ReloadModel(std::shared_ptr<const ModelSnapshot> snapshot) {
  DARE_CHECK(snapshot != nullptr) << "ReloadModel needs a snapshot";
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.reloads;
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_one();  // single waiter: the flusher
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (flusher_.joinable()) flusher_.join();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats stats = stats_;
  stats.to_degraded = controller_.to_degraded();
  stats.to_shedding = controller_.to_shedding();
  stats.to_healthy = controller_.to_healthy();
  stats.load_state = controller_.state();
  return stats;
}

int64_t Server::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

void Server::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    FlushReason reason = FlushReason::kDrain;
    if (!stopping_) {
      // Wait until the batch fills or the oldest pending request's deadline
      // passes — whichever fires first releases the flush.
      const auto deadline =
          queue_.front().enqueued +
          std::chrono::microseconds(options_.flush_deadline_us);
      const bool filled = cv_.wait_until(lock, deadline, [&] {
        return stopping_ ||
               static_cast<int64_t>(queue_.size()) >= options_.max_batch;
      });
      reason = stopping_        ? FlushReason::kDrain
               : filled         ? FlushReason::kSize
                                : FlushReason::kDeadline;
    }
    // Batch assembly: one ladder observation for the whole flush (depth
    // before anything is taken), then pop until the batch fills — expired
    // requests complete with DeadlineExceeded here and never take a GEMM
    // slot, so a burst of doomed requests costs no scoring work.
    const LoadState state =
        controller_.Observe(static_cast<int64_t>(queue_.size()));
    const auto now = std::chrono::steady_clock::now();
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    batch.reserve(static_cast<size_t>(
        std::min<int64_t>(static_cast<int64_t>(queue_.size()),
                          options_.max_batch)));
    while (!queue_.empty() &&
           static_cast<int64_t>(batch.size()) < options_.max_batch) {
      Pending p = std::move(queue_.front());
      queue_.pop_front();
      if (p.has_deadline && p.deadline <= now) {
        expired.push_back(std::move(p));
      } else {
        batch.push_back(std::move(p));
      }
    }
    // Stats land before any promise is fulfilled (the stats-before-wakeup
    // invariant): a caller woken by its future sees itself counted.
    stats_.shed_deadline += static_cast<int64_t>(expired.size());
    stats_.failed += static_cast<int64_t>(expired.size());
    lock.unlock();
    for (Pending& p : expired) {
      p.promise.set_value(core::Status::DeadlineExceeded(
          "request expired waiting for a flush slot"));
    }
    if (!batch.empty()) FlushBatch(std::move(batch), reason, state);
    lock.lock();
  }
}

void Server::FlushBatch(std::vector<Pending> batch, FlushReason reason,
                        LoadState state) {
  // One pointer copy pins this whole batch to one snapshot; a concurrent
  // ReloadModel affects only later flushes.
  const std::shared_ptr<const ModelSnapshot> snapshot = current_snapshot();

  // Fault injection (core/failpoint.h): serve.slow_flush stalls the flush
  // here — after the snapshot pin, before the deadline re-check — so tests
  // can age the queue and expire in-flight requests deterministically;
  // serve.flush_fail fails every live request in this flush with Internal.
  bool inject_fail = false;
  if (core::FailPoint::Enabled()) {
    int64_t stall_us = 0;
    if (core::FailPoint::Fires("serve.slow_flush", &stall_us)) {
      std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
    }
    inject_fail = core::FailPoint::Fires("serve.flush_fail");
  }

  // Ladder settings for this flush: Degraded (and Shedding drains) clamp
  // every request's k. Scoring work is unchanged — the GEMM scores every
  // item whatever k is — so the clamp only shrinks selection heaps and
  // result copies; the ladder drains a backlog mainly by shedding.
  const bool degraded = state != LoadState::kHealthy;
  const int64_t k_cap = degraded ? options_.overload.k_degraded : 0;

  // Deadline re-check after the (possibly stalled) start of the flush: a
  // request that expired since assembly still never reaches the GEMM.
  const auto now = std::chrono::steady_clock::now();

  std::vector<int64_t> users;
  std::vector<size_t> slots;  // batch index answered by engine list i
  std::vector<int64_t> ks;    // effective (possibly clamped) k per slot
  users.reserve(batch.size());
  slots.reserve(batch.size());
  ks.reserve(batch.size());
  std::vector<std::optional<core::StatusOr<TopKResult>>> outcomes(
      batch.size());
  int64_t k_max = 0;
  int64_t failed = 0;
  int64_t expired_in_flush = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (p.has_deadline && p.deadline <= now) {
      outcomes[i] =
          core::Status::DeadlineExceeded("request expired during flush");
      ++failed;
      ++expired_in_flush;
    } else if (inject_fail) {
      outcomes[i] = core::Status::Internal(
          "injected flush failure (serve.flush_fail)");
      ++failed;
    } else if (p.user < 0 || p.user >= snapshot->num_users()) {
      outcomes[i] =
          core::Status::OutOfRange("bad user id: " + std::to_string(p.user));
      ++failed;
    } else {
      users.push_back(p.user);
      slots.push_back(i);
      const int64_t effective_k = topk::ClampK(p.k, k_cap);
      ks.push_back(effective_k);
      k_max = std::max(k_max, effective_k);
    }
  }

  if (!users.empty()) {
    const topk::SeenItemsFn seen = [&snapshot](int64_t user) {
      return snapshot->SeenOf(user);
    };
    // One engine batch at the largest requested (post-clamp) k; each
    // request takes the prefix it asked for (the deterministic total order
    // makes the top-k list a prefix of the top-k_max list).
    std::vector<std::vector<topk::ScoredItem>> lists =
        snapshot->engine().TopK(users, k_max, seen, topk::MaskMode::kDrop);
    for (size_t i = 0; i < slots.size(); ++i) {
      std::vector<topk::ScoredItem>& list = lists[i];
      if (static_cast<int64_t>(list.size()) > ks[i]) {
        list.resize(static_cast<size_t>(ks[i]));
      }
      outcomes[slots[i]] = TopKResult{std::move(list), snapshot->version()};
    }
  }

  // Stats land BEFORE any promise is fulfilled: a caller woken by its
  // future always observes this flush already counted in stats().
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.flushes;
    switch (reason) {
      case FlushReason::kSize: ++stats_.size_flushes; break;
      case FlushReason::kDeadline: ++stats_.deadline_flushes; break;
      case FlushReason::kDrain: ++stats_.drain_flushes; break;
    }
    stats_.completed += static_cast<int64_t>(slots.size());
    stats_.failed += failed;
    stats_.shed_deadline += expired_in_flush;
    if (inject_fail) {
      stats_.flush_failures +=
          failed - expired_in_flush;  // the injected-Internal share
    }
    if (degraded) ++stats_.degraded_flushes;
    stats_.max_batch_observed = std::max(
        stats_.max_batch_observed, static_cast<int64_t>(batch.size()));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(*outcomes[i]));
  }
}

}  // namespace darec::serve
