#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "core/rng.h"
#include "report.h"

namespace darec::e2e {

namespace {

constexpr int64_t kSampleEvery = 97;
constexpr int64_t kRequestLanes = 8;
constexpr double kWindowSeconds = 0.5;

std::string CountsJson(const serve::ServerStats& s) {
  return "{\"submitted\": " + std::to_string(s.submitted) +
         ", \"completed\": " + std::to_string(s.completed) +
         ", \"failed\": " + std::to_string(s.failed) +
         ", \"flushes\": " + std::to_string(s.flushes) +
         ", \"size_flushes\": " + std::to_string(s.size_flushes) +
         ", \"deadline_flushes\": " + std::to_string(s.deadline_flushes) +
         ", \"shed_admission\": " + std::to_string(s.shed_admission) +
         ", \"shed_deadline\": " + std::to_string(s.shed_deadline) +
         ", \"degraded_flushes\": " + std::to_string(s.degraded_flushes) +
         ", \"reloads\": " + std::to_string(s.reloads) +
         ", \"peak_pending\": " + std::to_string(s.peak_pending) + "}";
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size())) - 1.0;
  const size_t idx = static_cast<size_t>(
      std::clamp(rank, 0.0, static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

double PhaseResult::fail_share() const {
  return attempted > 0 ? static_cast<double>(failed()) / attempted : 0.0;
}

double PhaseResult::goodput_per_s() const {
  return spec.seconds > 0.0 ? static_cast<double>(served) / spec.seconds : 0.0;
}

double PhaseResult::served_ms_at(double q) const { return Percentile(served_ms, q); }
double PhaseResult::late_us_at(double q) const { return Percentile(late_us, q); }

double PhaseResult::window_median_ms_at(double q) const {
  std::vector<double> per_window;
  for (const std::vector<double>& w : window_ms) {
    if (!w.empty()) per_window.push_back(Percentile(w, q));
  }
  std::sort(per_window.begin(), per_window.end());
  return Percentile(per_window, 0.5);
}

PhaseResult RunPhase(serve::Server& server, const PhaseSpec& spec,
                     int64_t num_users, Tracer& tracer) {
  // The schedule is drawn up front so the sender does nothing but wait and
  // submit; it is part of the workload's input, a function of the seed.
  core::Rng rng(spec.seed);
  std::vector<double> arrival_s;
  std::vector<int64_t> users;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.UniformDouble()) / spec.qps;
    if (t >= spec.seconds) break;
    arrival_s.push_back(t);
    users.push_back(rng.UniformInt(num_users));
  }
  const size_t n = arrival_s.size();

  PhaseResult result;
  result.spec = spec;
  result.attempted = static_cast<int64_t>(n);
  result.before = server.stats();
  result.window_ms.resize(static_cast<size_t>(std::ceil(spec.seconds / kWindowSeconds)));

  std::vector<std::future<core::StatusOr<serve::TopKResult>>> futures(n);
  std::vector<Clock::time_point> scheduled(n);
  std::vector<double> late_us(n, 0.0);
  std::vector<Span> request_spans;
  const int64_t phase_span = tracer.NewId();

  // Blocking handoff (not a spin): a spinning collector on a small machine
  // steals scheduler time from the server's flusher and pollutes the tail.
  std::mutex mu;
  std::condition_variable cv;
  size_t published = 0;

  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    scheduled[i] = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(arrival_s[i]));
  }

  std::thread collector([&] {
    int64_t served_seen = 0;
    for (size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i; });
      }
      core::StatusOr<serve::TopKResult> r = futures[i].get();
      const Clock::time_point done = Clock::now();
      if (r.ok()) {
        ++result.served;
        const double ms =
            std::chrono::duration<double, std::milli>(done - scheduled[i]).count();
        result.served_ms.push_back(ms);
        result.window_ms[static_cast<size_t>(arrival_s[i] / kWindowSeconds)].push_back(ms);
        if (++served_seen % kSampleEvery == 0) {
          result.samples.push_back({users[i], spec.k, std::move(r).value()});
        }
      } else if (r.status().code() == core::StatusCode::kResourceExhausted) {
        ++result.shed;
      } else if (r.status().code() == core::StatusCode::kDeadlineExceeded) {
        ++result.expired;
      } else {
        ++result.other_errors;
      }
      if (tracer.enabled()) {
        request_spans.push_back({"request", tracer.NewId(), phase_span,
                                 tracer.ToUs(scheduled[i]), tracer.ToUs(done),
                                 100 + static_cast<int64_t>(i) % kRequestLanes});
      }
    }
  });

  for (size_t i = 0; i < n; ++i) {
    if (Clock::now() < scheduled[i]) std::this_thread::sleep_until(scheduled[i]);
    const Clock::time_point sent = Clock::now();
    futures[i] = server.SubmitTopK(users[i], spec.k, spec.timeout_us);
    late_us[i] = std::chrono::duration<double, std::micro>(sent - scheduled[i]).count();
    {
      std::lock_guard<std::mutex> lock(mu);
      published = i + 1;
    }
    cv.notify_one();
  }
  collector.join();
  const Clock::time_point end = Clock::now();

  result.after = server.stats();
  std::sort(result.served_ms.begin(), result.served_ms.end());
  for (std::vector<double>& w : result.window_ms) std::sort(w.begin(), w.end());
  std::sort(late_us.begin(), late_us.end());
  result.late_us = std::move(late_us);
  tracer.Add("serve_phase", phase_span, 0, start, end, 2);
  tracer.AddAll(std::move(request_spans));
  return result;
}

bool AccountingCloses(const PhaseResult& p, std::string* detail) {
  const int64_t submitted = p.after.submitted - p.before.submitted;
  const int64_t shed = p.after.shed_admission - p.before.shed_admission;
  const int64_t completed = p.after.completed - p.before.completed;
  const int64_t failed = p.after.failed - p.before.failed;
  const bool client = p.served + p.shed + p.expired + p.other_errors == p.attempted;
  const bool server = submitted + shed == p.attempted &&
                      completed + failed == submitted && completed == p.served &&
                      shed == p.shed && failed == p.expired + p.other_errors;
  if (!(client && server)) {
    *detail = p.spec.name + ": attempted " + std::to_string(p.attempted) +
              " client served/shed/expired/other " + std::to_string(p.served) +
              "/" + std::to_string(p.shed) + "/" + std::to_string(p.expired) +
              "/" + std::to_string(p.other_errors) + " server submitted " +
              std::to_string(submitted) + " completed " +
              std::to_string(completed) + " failed " + std::to_string(failed) +
              " shed " + std::to_string(shed);
  }
  return client && server;
}

int64_t CheckPrefixes(const std::vector<const PhaseResult*>& phases,
                      const serve::ModelSnapshot& reference,
                      uint64_t max_version, int64_t* checked,
                      std::string* detail) {
  const topk::SeenItemsFn seen = [&reference](int64_t user) {
    return reference.SeenOf(user);
  };
  int64_t failures = 0;
  *checked = 0;
  for (const PhaseResult* phase : phases) {
    for (const SampledResult& s : phase->samples) {
      ++*checked;
      const std::vector<topk::ScoredItem> want =
          reference.engine().TopK({s.user}, s.k, seen, topk::MaskMode::kDrop).front();
      const std::vector<topk::ScoredItem>& got = s.result.items;
      const bool version_ok =
          s.result.snapshot_version >= 1 && s.result.snapshot_version <= max_version;
      const bool prefix_ok = !got.empty() && got.size() <= want.size() &&
                             std::equal(got.begin(), got.end(), want.begin());
      if (version_ok && prefix_ok) continue;
      if (failures++ == 0) {
        *detail = phase->spec.name + ": user " + std::to_string(s.user) +
                  " version " + std::to_string(s.result.snapshot_version) +
                  (version_ok ? "" : " (unpublished)") +
                  (prefix_ok ? "" : " is not a non-empty prefix of serial top-k");
      }
    }
  }
  return failures;
}

std::string PhaseJson(const PhaseResult& p) {
  return "{\"name\": " + JsonStr(p.spec.name) +
         ", \"qps\": " + JsonNum(p.spec.qps) +
         ", \"seconds\": " + JsonNum(p.spec.seconds) +
         ", \"attempted\": " + std::to_string(p.attempted) +
         ", \"served\": " + std::to_string(p.served) +
         ", \"shed\": " + std::to_string(p.shed) +
         ", \"expired\": " + std::to_string(p.expired) +
         ", \"other_errors\": " + std::to_string(p.other_errors) +
         ", \"goodput_per_s\": " + JsonNum(p.goodput_per_s()) +
         ", \"fail_share\": " + JsonNum(p.fail_share()) +
         ", \"p50_ms\": " + JsonNum(p.served_ms_at(0.50)) +
         ", \"p99_ms\": " + JsonNum(p.served_ms_at(0.99)) +
         ", \"p999_ms\": " + JsonNum(p.served_ms_at(0.999)) +
         ", \"window_p50_ms\": " + JsonNum(p.window_median_ms_at(0.50)) +
         ", \"window_p99_ms\": " + JsonNum(p.window_median_ms_at(0.99)) +
         ", \"late_p99_us\": " + JsonNum(p.late_us_at(0.99)) +
         ", \"server_before\": " + CountsJson(p.before) +
         ", \"server_after\": " + CountsJson(p.after) + "}";
}

}  // namespace darec::e2e
