// Training-throughput bench: the workers × SIMD sweep behind BENCH_train.json.
//
//   ./train_bench [datasets=tiny,amazon-book-small] [epochs=3]
//                 [workers=1,2,4] [grad_accum=8] [out=BENCH_train.json]
//
// Each dataset runs one serial cell (workers=1, grad_accum=1 — per-batch
// updates) and a grid of data-parallel cells (grad_accum=8 super-steps, one
// shared forward each) over worker counts × compiled SIMD tiers. Every cell
// reports epochs/sec; parity gates hard-fail the bench when any bit drifts:
//   - all SIMD tiers must match the scalar tier bitwise (per cell shape),
//   - all worker counts must match workers=1 bitwise (per grad_accum).
// So the JSON doubles as a machine-checked correctness artifact: a row in
// the sweep is only ever faster, never different.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/config.h"
#include "core/cpu_features.h"
#include "pipeline/experiment.h"
#include "run_header.h"

namespace darec {
namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

pipeline::ExperimentSpec BenchSpec(const std::string& dataset, int64_t epochs) {
  pipeline::ExperimentSpec spec;
  spec.dataset = dataset;
  spec.backbone = "lightgcn";
  spec.variant = "darec";
  spec.backbone_options.embedding_dim = 32;
  spec.backbone_options.num_layers = 2;
  spec.backbone_options.ssl_batch = 128;
  spec.train_options.epochs = epochs;
  spec.train_options.batch_size = 512;
  spec.llm_options.output_dim = 48;
  spec.llm_options.hidden_dim = 64;
  spec.darec_options.sample_size = 128;
  spec.darec_options.uniformity_sample = 64;
  spec.darec_options.projection_dim = 32;
  spec.darec_options.hidden_dim = 48;
  spec.darec_options.kmeans_iterations = 5;
  return spec;
}

struct Cell {
  std::string dataset;
  std::string mode;  // "serial" or "parallel"
  int workers = 1;
  int64_t grad_accum = 1;
  core::SimdLevel simd = core::SimdLevel::kScalar;
  double epochs_per_sec = 0.0;
  double train_seconds = 0.0;
  uint64_t final_loss_bits = 0;
  bool parity_ok = true;
};

Cell RunCell(const std::string& dataset, int64_t epochs, int workers,
             int64_t grad_accum, core::SimdLevel simd) {
  core::SetSimdLevelForTest(simd);
  pipeline::ExperimentSpec spec = BenchSpec(dataset, epochs);
  spec.train_options.workers = workers;
  spec.train_options.grad_accum = grad_accum;
  const pipeline::TrainResult result = benchutil::RunOrDie(spec);

  Cell cell;
  cell.dataset = dataset;
  cell.mode = grad_accum == 1 && workers == 1 ? "serial" : "parallel";
  cell.workers = workers;
  cell.grad_accum = grad_accum;
  cell.simd = simd;
  cell.train_seconds = result.train_seconds;
  cell.epochs_per_sec = result.train_seconds > 0.0
                            ? static_cast<double>(epochs) / result.train_seconds
                            : 0.0;
  cell.final_loss_bits = Bits(result.epoch_losses.back());
  return cell;
}

}  // namespace
}  // namespace darec

int main(int argc, char** argv) {
  using darec::Cell;
  using darec::core::SimdLevel;

  darec::core::Config config = darec::benchutil::ParseArgsOrDie(argc, argv);
  const std::vector<std::string> datasets = darec::benchutil::SplitCsv(
      config.GetString("datasets", "tiny,amazon-book-small"));
  const int64_t epochs = config.GetInt("epochs", 3);
  const int64_t grad_accum = config.GetInt("grad_accum", 8);
  const std::vector<std::string> worker_list =
      darec::benchutil::SplitCsv(config.GetString("workers", "1,2,4"));
  const std::string out_path = config.GetString("out", "BENCH_train.json");

  std::vector<SimdLevel> tiers{SimdLevel::kScalar};
  if (darec::core::HardwareSimdLevel() >= SimdLevel::kAvx2)
    tiers.push_back(SimdLevel::kAvx2);
  if (darec::core::HardwareSimdLevel() >= SimdLevel::kAvx512)
    tiers.push_back(SimdLevel::kAvx512);
  const SimdLevel best = tiers.back();

  std::vector<Cell> cells;
  bool all_parity_ok = true;
  for (const std::string& dataset : datasets) {
    // Serial baseline (per-batch updates), scalar and best tier:
    // isolates the SIMD-only speedup on the unchanged training semantics.
    std::vector<Cell> serial;
    for (SimdLevel tier : {SimdLevel::kScalar, best}) {
      serial.push_back(darec::RunCell(dataset, epochs, 1, 1, tier));
      if (serial.size() > 1u &&
          serial.back().final_loss_bits != serial.front().final_loss_bits) {
        serial.back().parity_ok = false;
      }
      if (tier == best) break;  // Scalar may *be* the best tier.
    }

    // Data-parallel grid: workers × tiers at one grad_accum. Every cell
    // must be bitwise equal to the (workers=1, scalar) reference.
    std::vector<Cell> grid;
    for (const std::string& w : worker_list) {
      const int workers = static_cast<int>(std::stoll(w));
      for (SimdLevel tier : tiers) {
        grid.push_back(darec::RunCell(dataset, epochs, workers, grad_accum, tier));
        if (grid.back().final_loss_bits != grid.front().final_loss_bits) {
          grid.back().parity_ok = false;
        }
      }
    }

    for (const Cell& c : serial) all_parity_ok &= c.parity_ok;
    for (const Cell& c : grid) all_parity_ok &= c.parity_ok;
    cells.insert(cells.end(), serial.begin(), serial.end());
    cells.insert(cells.end(), grid.begin(), grid.end());
  }
  darec::core::SetSimdLevelForTest(darec::core::SimdLevelFromEnvOrDie());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"train_bench\",\n");
  std::fprintf(f,
               "  \"note\": \"lightgcn+darec training throughput; serial = "
               "per-batch updates, parallel = grad_accum=%" PRId64
               " super-steps (one shared forward and backward through the "
               "propagation each); parity gates assert every simd tier and "
               "worker count is bitwise equal to its reference cell; worker "
               "counts above header.nproc prove correctness, not speed\",\n",
               grad_accum);
  std::fprintf(f, "  \"header\": %s,\n", darec::bench::RunHeaderJson().c_str());
  std::fprintf(f, "  \"hardware_simd\": \"%s\",\n",
               darec::core::SimdLevelName(darec::core::HardwareSimdLevel()));
  std::fprintf(f, "  \"epochs\": %" PRId64 ",\n", epochs);
  std::fprintf(f, "  \"parity\": \"%s\",\n", all_parity_ok ? "ok" : "FAILED");
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"mode\": \"%s\", \"workers\": %d, "
                 "\"grad_accum\": %" PRId64 ", \"simd\": \"%s\", "
                 "\"epochs_per_sec\": %.4f, \"train_seconds\": %.4f, "
                 "\"final_loss_bits\": \"0x%016" PRIx64 "\", "
                 "\"parity_ok\": %s}%s\n",
                 c.dataset.c_str(), c.mode.c_str(), c.workers, c.grad_accum,
                 darec::core::SimdLevelName(c.simd), c.epochs_per_sec,
                 c.train_seconds, c.final_loss_bits,
                 c.parity_ok ? "true" : "false",
                 i + 1 < cells.size() ? "," : "");
    std::printf("%-18s %-8s workers=%d accum=%" PRId64 " simd=%-6s  "
                "%8.4f epochs/sec  parity=%s\n",
                c.dataset.c_str(), c.mode.c_str(), c.workers, c.grad_accum,
                darec::core::SimdLevelName(c.simd), c.epochs_per_sec,
                c.parity_ok ? "ok" : "FAILED");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_parity_ok) {
    std::fprintf(stderr, "PARITY FAILURE: some cells drifted bitwise\n");
    return 1;
  }
  return 0;
}
