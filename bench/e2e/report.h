#ifndef DAREC_BENCH_E2E_REPORT_H_
#define DAREC_BENCH_E2E_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace darec::e2e {

/// JSON text helpers: a quoted, escaped string and a number printed with
/// all its digits (non-finite values become null).
std::string JsonStr(const std::string& s);
std::string JsonNum(double v);

/// What was run, where, and how it was built — the one header every run
/// JSON and the stdout preamble carry.
struct RunHeader {
  std::string git_sha;
  std::string compiler;
  std::string cxx_flags;
  int nproc = 0;
  int pool_threads = 0;
  std::string simd;
  /// Every DAREC_* environment variable, as name=value pairs.
  std::vector<std::pair<std::string, std::string>> darec_env;
  std::string workload;
  uint64_t seed = 0;
  bool smoke = false;
  bool trace = false;
  double seconds = 0.0;
};

/// Fills the build and host fields of a header (git sha, compiler and
/// flags from configure time, nproc, pool size, SIMD tier, DAREC_* vars).
RunHeader MakeHeader();

/// Everything one run reports: named metrics with units, correctness gates,
/// operation counts, and free-form JSON sections (phases, ladder, layers).
class Report {
 public:
  explicit Report(RunHeader header) : header_(std::move(header)) {}

  /// Sets (or overwrites) a metric.
  void Set(const std::string& name, double value, const std::string& unit);
  /// A metric's value (0 when it was never set).
  double Get(const std::string& name) const;

  /// Records a correctness gate; any failing gate makes the run incorrect.
  void Gate(const std::string& name, bool ok, const std::string& detail = "");
  bool correct() const;

  /// Operations issued (requests, training steps, evaluations, checkpoint
  /// commits) and the ones that failed where the workload expects success.
  void CountAttempted(int64_t n) { attempted_ += n; }
  void CountFailed(int64_t n) { failed_ += n; }

  /// Adds a top-level JSON member whose value is already-rendered JSON.
  void AddSection(const std::string& key, std::string json);

  /// Prints the run header to stdout.
  void PrintHeader() const;
  /// Prints one "metric <name> <value> <unit>" line per metric, one line
  /// per gate and the operation counts to stdout.
  void PrintResults() const;

  /// Writes the whole report as one JSON object. Returns false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct GateResult {
    std::string name;
    bool ok = false;
    std::string detail;
  };

  RunHeader header_;
  std::vector<Metric> metrics_;
  std::vector<GateResult> gates_;
  std::vector<std::pair<std::string, std::string>> sections_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace darec::e2e

#endif  // DAREC_BENCH_E2E_REPORT_H_
