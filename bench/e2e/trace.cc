#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace darec::e2e {

void Tracer::Add(const std::string& name, int64_t id, int64_t parent,
                 Clock::time_point start, Clock::time_point end, int64_t lane) {
  if (!enabled_) return;
  Span span{name, id, parent, ToUs(start), ToUs(end), lane};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::AddAll(std::vector<Span> spans) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double run_start = 0.0, run_end = -1.0;
      for (const auto& [b, e] : kids) {
        const double lo = std::max(b, s.start_us);
        const double hi = std::min(e, s.end_us);
        if (hi <= lo) continue;
        if (lo > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = lo;
          run_end = hi;
        } else {
          run_end = std::max(run_end, hi);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    self[s.name] += (s.end_us - s.start_us - covered) * 1e-6;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %lld, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld}}%s\n",
                 s.name.c_str(), static_cast<long long>(s.lane), s.start_us,
                 s.end_us - s.start_us, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace darec::e2e
