#ifndef DAREC_SERVE_SERVER_H_
#define DAREC_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/backoff.h"
#include "core/statusor.h"
#include "serve/server_overload.h"
#include "serve/snapshot.h"
#include "topk/engine.h"

namespace darec::serve {

/// One completed top-K answer: the ranked list plus the version of the
/// snapshot that scored it (so callers can observe reloads).
struct TopKResult {
  std::vector<topk::ScoredItem> items;
  uint64_t snapshot_version = 0;
};

struct ServerOptions {
  /// Size trigger: a flush fires as soon as this many requests are pending.
  /// Clamped to ≥ 1 (logged once). max_batch = 1 degenerates to the
  /// single-request path (one engine batch-of-one per request) — the
  /// serve_bench baseline.
  int64_t max_batch = 64;
  /// Deadline trigger: a flush fires at latest this long after the OLDEST
  /// pending request arrived, whatever the batch size — bounding the
  /// batching delay any request can pay. 0 flushes immediately; negative
  /// values clamp to 0 (logged once).
  int64_t flush_deadline_us = 1000;
  /// Bounded admission: a submit that would grow the queue past this depth
  /// is shed immediately with ResourceExhausted instead of being enqueued —
  /// the queue can never grow without bound. <= 0 means unbounded (the
  /// pre-overload behavior; only sensible in closed-loop benches). When
  /// bounded, max_queue < max_batch is rejected (CHECK): the size trigger
  /// could never fire.
  int64_t max_queue = 4096;
  /// The graceful-degradation ladder (server_overload.h): queue-depth
  /// watermarks with hysteresis walk Healthy → Degraded (clamp k) →
  /// Shedding (admit nothing, drain). Watermarks left at -1 derive from
  /// max_queue.
  OverloadOptions overload;
};

/// Monotonic counters (see stats()). A flush's reason is whichever trigger
/// actually released it: size (max_batch reached), deadline (oldest request
/// aged out), or drain (server stopping).
struct ServerStats {
  int64_t submitted = 0;        // admitted into the queue
  int64_t completed = 0;        // fulfilled with a ranked list
  int64_t failed = 0;           // fulfilled with an error status
  int64_t flushes = 0;
  int64_t size_flushes = 0;
  int64_t deadline_flushes = 0;
  int64_t drain_flushes = 0;
  int64_t reloads = 0;
  int64_t max_batch_observed = 0;
  // -- overload protection ------------------------------------------------
  /// Submits rejected with ResourceExhausted (queue full or Shedding).
  /// These never count as submitted.
  int64_t shed_admission = 0;
  /// Requests completed with DeadlineExceeded: expired at admission
  /// (timeout_us < 0 — never submitted), at batch assembly, or inside a
  /// flush. The latter two are also counted in `failed`.
  int64_t shed_deadline = 0;
  /// Flushes scored under Degraded/Shedding settings (k clamp).
  int64_t degraded_flushes = 0;
  /// Live requests failed by the serve.flush_fail fail point (Internal).
  int64_t flush_failures = 0;
  /// Ladder transition counts (entries into each state) and the state in
  /// effect when stats() was taken.
  int64_t to_degraded = 0;
  int64_t to_shedding = 0;
  int64_t to_healthy = 0;
  LoadState load_state = LoadState::kHealthy;
  /// High-water mark of the pending-queue depth (see pending()).
  int64_t peak_pending = 0;
};

/// The online serving tier: a microbatched request queue in front of
/// topk::Engine (DESIGN.md §12), with overload protection (§13).
///
/// Many producer threads submit independent single-user top-K requests;
/// one flusher thread coalesces whatever is pending into a single engine
/// batch — released by a size OR deadline trigger, whichever fires first —
/// and completes each request through its future. N concurrent batch-of-one
/// scans become one engine batch per flush: the flush's users are split
/// into row groups that each stream the item panels once into per-request
/// heaps, which is where the engine's batch throughput (BENCH_topk.json)
/// turns into serving throughput (BENCH_serve.json).
///
/// A flush scores every request in the batch with the engine's largest
/// requested k and hands each request the prefix it asked for. Selection
/// follows the engine's deterministic total order (score desc, id asc), so
/// the prefix of a top-kmax list IS the top-k list: results are bitwise
/// identical to a direct Recommender::RecommendTopK call against the same
/// snapshot, at any batch composition. Degraded flushes only clamp k, so
/// their lists are bitwise the prefixes a Healthy flush would return.
///
/// Overload protection is three independent mechanisms sharing one signal,
/// the pending-queue depth:
///  - bounded admission: depth ≥ max_queue sheds at submit
///    (ResourceExhausted — retryable, see SubmitWithRetry);
///  - per-request deadlines: SubmitTopK(user, k, timeout_us) requests
///    expire with DeadlineExceeded at admission, batch assembly, or inside
///    a stalled flush — an expired request never occupies a scoring slot;
///  - the degradation ladder (server_overload.h): watermark observations at
///    every admission and flush assembly walk Healthy → Degraded →
///    Shedding, all decisions pure functions of observed depth.
///
/// Model reloads are snapshot swaps: the current ModelSnapshot lives behind
/// a dedicated mutex held only for a shared_ptr copy; ReloadModel swaps the
/// pointer and returns. A flush in progress keeps the snapshot it pinned
/// alive through its shared_ptr copy, so no in-flight request ever blocks
/// on, or is dropped by, a reload — each batch is answered consistently by
/// exactly one snapshot, and tags its results with that snapshot's version.
class Server {
 public:
  /// Starts the flusher thread. `snapshot` must not be null. Nonsensical
  /// option combinations (bounded max_queue < max_batch, inverted ladder
  /// watermarks) are programmer errors and CHECK-fail; out-of-range scalars
  /// are clamped with one startup log line.
  explicit Server(std::shared_ptr<const ModelSnapshot> snapshot,
                  const ServerOptions& options = ServerOptions());
  /// Stops (draining every pending request) and joins.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues a top-k request for `user`. The future completes with the
  /// ranked list (training items excluded, k clamped to the eligible count
  /// — the unified k contract of serve::Recommender) or with an error:
  /// InvalidArgument for non-positive k (failed immediately, never
  /// enqueued), OutOfRange for a user id the flushed-against snapshot does
  /// not know, FailedPrecondition after Stop(), ResourceExhausted when
  /// admission sheds (queue at max_queue, or the ladder is Shedding),
  /// DeadlineExceeded when the request expires before being scored.
  ///
  /// `timeout_us` > 0 arms a deadline `timeout_us` after submission;
  /// 0 means no deadline; negative means "budget already spent" — the
  /// request fails DeadlineExceeded at admission without being enqueued
  /// (SubmitWithRetry passes its remaining budget through here).
  std::future<core::StatusOr<TopKResult>> SubmitTopK(int64_t user, int64_t k,
                                                     int64_t timeout_us = 0);

  /// Atomically swaps the servable model. Requests already flushing keep
  /// the old snapshot; later flushes (including of already-queued requests)
  /// use the new one. Never blocks request processing.
  void ReloadModel(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The snapshot new flushes will score against.
  std::shared_ptr<const ModelSnapshot> current_snapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  /// Drains the queue (every pending future completes), then stops the
  /// flusher thread. Idempotent. Subsequent submits fail fast.
  void Stop();

  ServerStats stats() const;

  /// Current pending-queue depth — the backlog the flusher has not yet
  /// picked up. Benches and tests observe load through this (and the
  /// peak_pending stat) instead of racing the flusher's internals.
  int64_t pending() const;

  const ServerOptions& options() const { return options_; }

 private:
  enum class FlushReason { kSize, kDeadline, kDrain };

  struct Pending {
    int64_t user = 0;
    int64_t k = 0;
    std::chrono::steady_clock::time_point enqueued;
    /// Valid only when has_deadline; expiry completes the request with
    /// DeadlineExceeded at batch assembly or inside a stalled flush.
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
    std::promise<core::StatusOr<TopKResult>> promise;
  };

  /// Clamps scalars (logged once), derives unset ladder watermarks from
  /// max_queue, and CHECK-rejects nonsensical combinations.
  static ServerOptions Validate(ServerOptions options);

  void FlusherLoop();
  /// Scores one batch against the current snapshot — at `state`'s ladder
  /// settings — and fulfills every promise in it. Runs without the queue
  /// lock held.
  void FlushBatch(std::vector<Pending> batch, FlushReason reason,
                  LoadState state);

  ServerOptions options_;
  /// Guards snapshot_; critical sections are a single shared_ptr copy.
  /// Deliberately NOT std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic
  /// is an internal spinlock whose lock-bit handoff TSan cannot model (and
  /// spinning loses to a mutex on few-core hosts anyway). A flush takes one
  /// copy per batch, so contention here is one lock per max_batch requests.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ModelSnapshot> snapshot_;

  mutable std::mutex mu_;        // guards queue_, stopping_, stats_, controller_
  /// Waited on ONLY by the flusher thread (producers signal, never wait),
  /// so one notify_one per submit is sufficient to preserve liveness —
  /// there is no second waiter a notify could be "stolen" from.
  std::condition_variable cv_;   // queue arrivals / size trigger / stop
  std::deque<Pending> queue_;
  bool stopping_ = false;
  ServerStats stats_;
  LoadController controller_;
  std::mutex join_mu_;           // serializes concurrent Stop() joins
  std::thread flusher_;
};

/// Client-side retry helper: submits, waits, and on ResourceExhausted
/// (admission shed) sleeps per `backoff` and resubmits, up to
/// `max_attempts` total attempts. Any other outcome — success,
/// DeadlineExceeded, a stopped server — returns immediately (those do not
/// get better with retries). `timeout_us` is passed through per attempt.
core::StatusOr<TopKResult> SubmitWithRetry(Server& server, int64_t user,
                                           int64_t k, int64_t timeout_us,
                                           core::Backoff& backoff,
                                           int64_t max_attempts);

}  // namespace darec::serve

#endif  // DAREC_SERVE_SERVER_H_
