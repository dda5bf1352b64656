#include "run_header.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "bench_build_info.h"
#include "core/cpu_features.h"
#include "core/thread_pool.h"

extern char** environ;

namespace darec::bench {

namespace {

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

}  // namespace

std::string RunHeaderJson() {
  std::vector<std::pair<std::string, std::string>> darec_env;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "DAREC_", 6) != 0) continue;
    const char* eq = std::strchr(*env, '=');
    if (eq == nullptr) continue;
    darec_env.emplace_back(std::string(*env, static_cast<size_t>(eq - *env)),
                           std::string(eq + 1));
  }
  std::sort(darec_env.begin(), darec_env.end());
  std::string out = "{\"git_sha\": " + JsonStr(BENCH_GIT_SHA);
  out += ", \"compiler\": " + JsonStr(BENCH_COMPILER);
  out += ", \"cxx_flags\": " + JsonStr(BENCH_CXX_FLAGS);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"pool_threads\": " +
         std::to_string(core::ThreadPool::DefaultThreads());
  out += ", \"simd\": " + JsonStr(core::SimdLevelName(core::ActiveSimdLevel()));
  out += ", \"darec_env\": {";
  for (size_t i = 0; i < darec_env.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonStr(darec_env[i].first) + ": " +
           JsonStr(darec_env[i].second);
  }
  return out + "}}";
}

}  // namespace darec::bench
