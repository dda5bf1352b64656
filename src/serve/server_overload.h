#ifndef DAREC_SERVE_SERVER_OVERLOAD_H_
#define DAREC_SERVE_SERVER_OVERLOAD_H_

#include <cstdint>
#include <string_view>

namespace darec::serve {

/// The degradation ladder a Server walks under load (DESIGN.md §13):
///
///   kHealthy  — full k.
///   kDegraded — k clamped to OverloadOptions::k_degraded (a no-op when
///               k_degraded <= 0). Scoring stays fp32, so each clamped list
///               is bitwise the prefix of the Healthy list.
///   kShedding — no new admissions (SubmitTopK fails fast with
///               ResourceExhausted); the flusher drains what is queued at
///               Degraded settings.
///
/// Ordered: a larger value is a more degraded state.
enum class LoadState : int { kHealthy = 0, kDegraded = 1, kShedding = 2 };

std::string_view LoadStateToString(LoadState state);

/// Watermarks and knobs for the ladder. All depths are queue depths
/// (pending, un-flushed requests) — the one load signal the server can
/// observe without clocks, which is what keeps every transition a pure
/// function of queue state (deterministically drivable in tests).
///
/// Fields left at -1 are derived from ServerOptions::max_queue at server
/// construction:
///   degrade_enter = max_queue / 2     degrade_exit = max_queue / 8
///   shed_enter    = 3 * max_queue / 4 shed_exit    = max_queue / 4
/// Exit watermarks sit well below their enter watermarks (hysteresis): a
/// queue oscillating around one depth cannot flap the ladder.
struct OverloadOptions {
  /// Master switch for the ladder. Off: the server never leaves kHealthy
  /// (bounded admission via max_queue still applies). With an unbounded
  /// queue (max_queue <= 0) and any watermark unset, the ladder disables
  /// itself (logged once) — there is nothing to derive the ladder from.
  bool enabled = true;
  /// Enter kDegraded at queue depth >= this.
  int64_t degrade_enter = -1;
  /// Leave kDegraded for kHealthy at depth <= this. 0 is meaningful: only
  /// an empty-queue observation recovers.
  int64_t degrade_exit = -1;
  /// Enter kShedding at depth >= this.
  int64_t shed_enter = -1;
  /// Leave kShedding (for kDegraded, or kHealthy when also at or under
  /// degrade_exit) at depth <= this.
  int64_t shed_exit = -1;
  /// k cap applied per-request in Degraded/Shedding flushes via
  /// topk::ClampK. <= 0 disables the clamp, so Degraded flushes score
  /// exactly like Healthy ones.
  int64_t k_degraded = 0;
};

/// The pure transition function: the next ladder state given the current
/// state and an observed queue depth. No clocks, no rates, no internal
/// state — tests can drive any trajectory by feeding depths.
LoadState NextLoadState(LoadState state, int64_t depth,
                        const OverloadOptions& options);

/// Tracks the ladder state across observations and counts transitions.
/// Not thread-safe; the Server drives it under its queue mutex.
class LoadController {
 public:
  explicit LoadController(const OverloadOptions& options)
      : options_(options) {}

  /// Applies NextLoadState to `depth`, recording any transition. Returns
  /// the state now in effect.
  LoadState Observe(int64_t depth);

  LoadState state() const { return state_; }
  int64_t to_degraded() const { return to_degraded_; }
  int64_t to_shedding() const { return to_shedding_; }
  int64_t to_healthy() const { return to_healthy_; }

 private:
  OverloadOptions options_;
  LoadState state_ = LoadState::kHealthy;
  int64_t to_degraded_ = 0;  // entries into kDegraded (from either side)
  int64_t to_shedding_ = 0;  // entries into kShedding
  int64_t to_healthy_ = 0;   // recoveries to kHealthy
};

}  // namespace darec::serve

#endif  // DAREC_SERVE_SERVER_OVERLOAD_H_
