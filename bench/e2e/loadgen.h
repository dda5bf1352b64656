#ifndef DAREC_BENCH_E2E_LOADGEN_H_
#define DAREC_BENCH_E2E_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"
#include "serve/snapshot.h"
#include "trace.h"

namespace darec::e2e {

/// One open-loop phase: Poisson arrivals at `qps` for `seconds`, each a
/// top-`k` request for a uniformly drawn user with a `timeout_us` deadline.
/// The schedule and the users are a pure function of `seed`.
struct PhaseSpec {
  std::string name;
  double qps = 0.0;
  double seconds = 0.0;
  int64_t k = 20;
  int64_t timeout_us = 50'000;
  uint64_t seed = 0;
};

/// A served result kept for the prefix gate (every 97th served request).
struct SampledResult {
  int64_t user = 0;
  int64_t k = 0;
  serve::TopKResult result;
};

struct PhaseResult {
  PhaseSpec spec;
  int64_t attempted = 0;
  int64_t served = 0;
  int64_t shed = 0;     // ResourceExhausted (admission)
  int64_t expired = 0;  // DeadlineExceeded
  int64_t other_errors = 0;
  /// Latency of each served request from its scheduled send time, sorted.
  std::vector<double> served_ms;
  /// The same latencies grouped by half-second windows of the schedule,
  /// each sorted.
  std::vector<std::vector<double>> window_ms;
  /// How late each send went out against its schedule, sorted.
  std::vector<double> late_us;
  serve::ServerStats before;
  serve::ServerStats after;
  std::vector<SampledResult> samples;

  int64_t failed() const { return shed + expired + other_errors; }
  /// (failed + shed + expired) / attempted.
  double fail_share() const;
  /// Served requests per scheduled second of the phase.
  double goodput_per_s() const;
  double served_ms_at(double q) const;
  /// Median over the half-second windows of each window's q-quantile.
  double window_median_ms_at(double q) const;
  double late_us_at(double q) const;
};

/// Runs one phase on a single submitting thread plus one collecting thread
/// and returns once every request has completed. With an enabled tracer,
/// records a "serve_phase" span and one "request" span per request (its
/// child), from scheduled send to completion.
PhaseResult RunPhase(serve::Server& server, const PhaseSpec& spec,
                     int64_t num_users, Tracer& tracer);

/// Checks every sampled result of `phases` against a serial Engine::TopK on
/// `reference`, which must hold the same embeddings and seen index as every
/// snapshot version in [1, max_version]. A result passes when it is a
/// non-empty prefix of the reference list and reports a published version.
/// Returns the number of failures; `detail` describes the first one.
int64_t CheckPrefixes(const std::vector<const PhaseResult*>& phases,
                      const serve::ModelSnapshot& reference,
                      uint64_t max_version, int64_t* checked,
                      std::string* detail);

/// The accounting gate: served + failed + shed = attempted for the phase,
/// on the client's counts and on the server's counter deltas.
bool AccountingCloses(const PhaseResult& phase, std::string* detail);

/// Percentile of a sorted sample (nearest rank); 0 for an empty sample.
double Percentile(const std::vector<double>& sorted, double q);

/// Renders the phase's counts, percentiles and server counter deltas.
std::string PhaseJson(const PhaseResult& phase);

}  // namespace darec::e2e

#endif  // DAREC_BENCH_E2E_LOADGEN_H_
