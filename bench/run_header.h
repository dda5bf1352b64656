#ifndef DAREC_BENCH_RUN_HEADER_H_
#define DAREC_BENCH_RUN_HEADER_H_

#include <string>

namespace darec::bench {

/// The run header of a BENCH_*.json file, with the fields of the bench/e2e
/// run header: the git commit (suffixed "-dirty" when the tree had
/// uncommitted changes), compiler and flags — all three fixed when the build
/// tree was configured — plus nproc, the global pool size, the active SIMD
/// tier and every DAREC_* environment variable. Returns a JSON object.
std::string RunHeaderJson();

}  // namespace darec::bench

#endif  // DAREC_BENCH_RUN_HEADER_H_
