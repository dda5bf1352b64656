#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/cpu_features.h"
#include "core/thread_pool.h"
#include "e2e_build_info.h"

extern char** environ;

namespace darec::e2e {

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

RunHeader MakeHeader() {
  RunHeader header;
  header.git_sha = E2E_GIT_SHA;
  header.compiler = E2E_COMPILER;
  header.cxx_flags = E2E_CXX_FLAGS;
  header.nproc = static_cast<int>(std::thread::hardware_concurrency());
  header.pool_threads = core::ThreadPool::DefaultThreads();
  header.simd = core::SimdLevelName(core::ActiveSimdLevel());
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "DAREC_", 6) != 0) continue;
    const char* eq = std::strchr(*env, '=');
    if (eq == nullptr) continue;
    header.darec_env.emplace_back(std::string(*env, static_cast<size_t>(eq - *env)),
                                  std::string(eq + 1));
  }
  std::sort(header.darec_env.begin(), header.darec_env.end());
  return header;
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void Report::Gate(const std::string& name, bool ok, const std::string& detail) {
  gates_.push_back({name, ok, detail});
}

bool Report::correct() const {
  return std::all_of(gates_.begin(), gates_.end(),
                     [](const GateResult& g) { return g.ok; });
}

void Report::AddSection(const std::string& key, std::string json) {
  sections_.emplace_back(key, std::move(json));
}

void Report::PrintHeader() const {
  const RunHeader& h = header_;
  std::printf("e2e_bench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              h.workload.c_str(), static_cast<unsigned long long>(h.seed),
              h.seconds, h.trace ? 1 : 0, h.smoke ? 1 : 0);
  std::printf("header git=%s compiler=\"%s\" flags=\"%s\" nproc=%d pool=%d "
              "simd=%s",
              h.git_sha.c_str(), h.compiler.c_str(), h.cxx_flags.c_str(),
              h.nproc, h.pool_threads, h.simd.c_str());
  for (const auto& [name, value] : h.darec_env) {
    std::printf(" %s=%s", name.c_str(), value.c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

void Report::PrintResults() const {
  for (const Metric& m : metrics_) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const GateResult& g : gates_) {
    std::printf("gate %s %s%s%s\n", g.name.c_str(), g.ok ? "ok" : "FAILED",
                g.detail.empty() ? "" : " ", g.detail.c_str());
  }
  std::printf("attempted %lld failed %lld correct %s\n",
              static_cast<long long>(attempted_), static_cast<long long>(failed_),
              correct() ? "true" : "false");
}

bool Report::WriteJson(const std::string& path) const {
  const RunHeader& h = header_;
  std::string out = "{\n  \"header\": {";
  out += "\"git_sha\": " + JsonStr(h.git_sha);
  out += ", \"compiler\": " + JsonStr(h.compiler);
  out += ", \"cxx_flags\": " + JsonStr(h.cxx_flags);
  out += ", \"nproc\": " + std::to_string(h.nproc);
  out += ", \"pool_threads\": " + std::to_string(h.pool_threads);
  out += ", \"simd\": " + JsonStr(h.simd);
  out += ", \"darec_env\": {";
  for (size_t i = 0; i < h.darec_env.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonStr(h.darec_env[i].first) + ": " +
           JsonStr(h.darec_env[i].second);
  }
  out += "}, \"workload\": " + JsonStr(h.workload);
  out += ", \"seed\": " + std::to_string(h.seed);
  out += ", \"smoke\": " + std::string(h.smoke ? "true" : "false");
  out += ", \"trace\": " + std::string(h.trace ? "true" : "false");
  out += ", \"seconds\": " + JsonNum(h.seconds) + "},\n";
  out += "  \"correct\": " + std::string(correct() ? "true" : "false") + ",\n";
  out += "  \"attempted\": " + std::to_string(attempted_) + ",\n";
  out += "  \"failed\": " + std::to_string(failed_) + ",\n";
  out += "  \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out += std::string(i > 0 ? "," : "") + "\n    " + JsonStr(metrics_[i].name) +
           ": {\"value\": " + JsonNum(metrics_[i].value) +
           ", \"unit\": " + JsonStr(metrics_[i].unit) + "}";
  }
  out += "\n  },\n  \"gates\": [";
  for (size_t i = 0; i < gates_.size(); ++i) {
    out += std::string(i > 0 ? "," : "") + "\n    {\"name\": " +
           JsonStr(gates_[i].name) +
           ", \"ok\": " + (gates_[i].ok ? "true" : "false") +
           ", \"detail\": " + JsonStr(gates_[i].detail) + "}";
  }
  out += "\n  ]";
  for (const auto& [key, json] : sections_) {
    out += ",\n  " + JsonStr(key) + ": " + json;
  }
  out += "\n}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace darec::e2e
