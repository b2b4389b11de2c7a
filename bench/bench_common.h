// Shared infrastructure for the experiment harnesses. Each bench binary
// regenerates one table or figure of the paper (see DESIGN.md section 4):
// it runs the reference board and the translated variants, prints the
// paper-style table (and an ASCII rendition of figures), and registers
// one google-benchmark per row so host-time measurements and modeled
// counters appear in the standard benchmark output.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "iss/iss.h"
#include "obs/metrics.h"
#include "platform/platform.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace cabt::bench {

/// Clock rates of the modelled platforms (paper section 4).
constexpr double kBoardHz = 48e6;   // TriCore evaluation board
constexpr double kVliwHz = 200e6;   // C6x on the emulation system
constexpr double kFpgaHz = 8e6;     // XCV2000E emulation (Table 2)

struct BoardRun {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t blocks = 0;
  uint64_t cached_blocks = 0;  ///< blocks served by the predecoded cache
  double host_seconds = 0;     ///< wall-clock time of the ISS run
  /// Full ISS counters (dispatch-path statistics included) for the
  /// BENCH_<name>.json records.
  iss::IssStats stats;
  /// Hottest block's enclosing function, symbolized through the image's
  /// symbol table (src/elf SymbolIndex); empty when no block engine ran.
  std::string hot_symbol;
  [[nodiscard]] double seconds() const {
    return static_cast<double>(cycles) / kBoardHz;
  }
  [[nodiscard]] double mips() const {
    return static_cast<double>(instructions) / seconds() / 1e6;
  }
  /// Host-side simulation speed of the reference board itself.
  [[nodiscard]] double hostMips() const {
    return static_cast<double>(instructions) / host_seconds / 1e6;
  }
  [[nodiscard]] double cacheShare() const {
    return blocks == 0 ? 0.0
                       : static_cast<double>(cached_blocks) /
                             static_cast<double>(blocks);
  }
};

struct VariantRun {
  uint64_t vliw_cycles = 0;
  uint64_t generated_cycles = 0;
  uint64_t sync_stalls = 0;
  uint64_t correction_cycles = 0;
  uint64_t code_bytes = 0;
  double host_seconds = 0;  ///< wall-clock time of the platform run
  [[nodiscard]] double seconds() const {
    return static_cast<double>(vliw_cycles) / kVliwHz;
  }
  [[nodiscard]] double mips(uint64_t instructions) const {
    return static_cast<double>(instructions) / seconds() / 1e6;
  }
  [[nodiscard]] double cpi(uint64_t instructions) const {
    return static_cast<double>(vliw_cycles) /
           static_cast<double>(instructions);
  }
  /// Host-side simulation speed in source MIPS.
  [[nodiscard]] double hostMips(uint64_t instructions) const {
    return static_cast<double>(instructions) / host_seconds / 1e6;
  }
};

/// Resolves where a bench output file goes: the CABT_BENCH_DIR
/// directory when set (so parallel ctest/bench invocations from
/// different working trees cannot clobber each other's records), the
/// current working directory otherwise. Every bench artefact must route
/// through this helper.
inline std::string benchOutputPath(const std::string& filename) {
  const char* dir = std::getenv("CABT_BENCH_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return filename;
  }
  std::string path(dir);
  if (path.back() != '/') {
    path += '/';
  }
  return path + filename;
}

/// Machine-readable perf record. Every bench writes BENCH_<name>.json
/// next to the working directory (or into CABT_BENCH_DIR when set — see
/// benchOutputPath) — one row per (workload, variant) with the modeled
/// cycle count and the host-side simulation speed — so the perf
/// trajectory is tracked across PRs by diffing the JSON files.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// `iss` (optional) attaches the dispatch-path counters to the row,
  /// so the perf trajectory records *why* ISS speed changed (chained vs
  /// looked-up vs trace dispatches), not just the MIPS. `hot_function`
  /// (optional) names the symbolized hottest block of the run.
  void add(const std::string& workload, const std::string& variant,
           uint64_t cycles, double host_mips,
           const iss::IssStats* iss = nullptr,
           const std::string& hot_function = {}) {
    Row row{workload, variant, cycles, host_mips, false, 0, 0, 0,
            hot_function};
    if (iss != nullptr) {
      row.have_dispatch = true;
      row.chain_hits = iss->chain_hits;
      row.trace_dispatches = iss->trace_dispatches;
      row.guard_bails = iss->guard_bails;
    }
    rows_.push_back(row);
  }

  /// Writes BENCH_<name>.json; failures are reported but non-fatal (a
  /// read-only working directory must not kill the bench).
  void write() const {
    const std::string path = benchOutputPath("BENCH_" + bench_name_ + ".json");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\n  \"bench\": \"" << bench_name_ << "\",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      char mips[32];
      std::snprintf(mips, sizeof(mips), "%.3f", r.host_mips);
      out << "    {\"workload\": \"" << r.workload << "\", \"variant\": \""
          << r.variant << "\", \"cycles\": " << r.cycles
          << ", \"host_mips\": " << mips;
      if (r.have_dispatch) {
        out << ", \"chain_hits\": " << r.chain_hits
            << ", \"trace_dispatches\": " << r.trace_dispatches
            << ", \"guard_bails\": " << r.guard_bails;
      }
      if (!r.hot_function.empty()) {
        out << ", \"hot_function\": \"" << r.hot_function << "\"";
      }
      out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  /// Writes the companion METRICS_<name>.json: a full metrics-registry
  /// snapshot (src/obs) next to the per-row perf record, folded into
  /// BENCH_SUMMARY.md by scripts/bench_report.py.
  void writeMetrics(const obs::MetricsRegistry& reg) const {
    const std::string path =
        benchOutputPath("METRICS_" + bench_name_ + ".json");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << reg.toJson();
  }

 private:
  struct Row {
    std::string workload;
    std::string variant;
    uint64_t cycles = 0;
    double host_mips = 0;
    bool have_dispatch = false;
    uint64_t chain_hits = 0;
    uint64_t trace_dispatches = 0;
    uint64_t guard_bails = 0;
    std::string hot_function;
  };
  std::string bench_name_;
  std::vector<Row> rows_;
};

inline arch::ArchDescription defaultArch() {
  return arch::ArchDescription::defaultTc10gp();
}

inline BoardRun runBoard(const arch::ArchDescription& desc,
                         const elf::Object& obj) {
  iss::Iss ref(desc, obj);
  const auto t0 = std::chrono::steady_clock::now();
  if (ref.run() != iss::StopReason::kHalted) {
    throw Error("reference run did not halt");
  }
  const auto t1 = std::chrono::steady_clock::now();
  BoardRun r{ref.stats().instructions, ref.stats().cycles,
             ref.stats().blocks, ref.stats().cached_blocks,
             std::chrono::duration<double>(t1 - t0).count(), ref.stats(),
             {}};
  const std::vector<iss::HotBlock> hot = ref.hotBlocks(1);
  if (!hot.empty()) {
    r.hot_symbol = hot.front().symbol;
  }
  return r;
}

inline VariantRun runVariant(const arch::ArchDescription& desc,
                             const elf::Object& obj,
                             xlat::DetailLevel level,
                             platform::PlatformConfig cfg = {},
                             xlat::TranslateOptions extra = {}) {
  xlat::TranslateOptions opts = extra;
  opts.level = level;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
  platform::EmulationPlatform plat(desc, t.image, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const platform::RunResult run = plat.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (run.state != vliw::RunState::kHalted) {
    throw Error("translated run did not halt");
  }
  return {run.vliw_cycles, run.generated_cycles, run.sync_stall_cycles,
          run.correction_cycles, t.stats.code_bytes,
          std::chrono::duration<double>(t1 - t0).count()};
}

inline const char* variantLabel(xlat::DetailLevel level) {
  switch (level) {
    case xlat::DetailLevel::kFunctional:
      return "C6x w/o cycle inf.";
    case xlat::DetailLevel::kStatic:
      return "C6x with cycle inf.";
    case xlat::DetailLevel::kBranchPredict:
      return "C6x branch pred.";
    case xlat::DetailLevel::kICache:
      return "C6x cache";
  }
  return "?";
}

/// Prints a horizontal ASCII bar (for the "figure" reproductions).
inline void printBar(const char* label, double value, double max_value,
                     const char* unit) {
  const int width = 50;
  const int n = max_value > 0
                    ? static_cast<int>(value / max_value * width + 0.5)
                    : 0;
  std::printf("  %-22s %8.2f %-6s |", label, value, unit);
  for (int i = 0; i < n; ++i) {
    std::printf("#");
  }
  std::printf("\n");
}

inline void printHeader(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s of Schnerr et al., DATE 2005)\n", title,
              paper_ref);
  std::printf("================================================================\n");
}

/// Pretty time with automatic unit, as in Table 2.
inline std::string humanTime(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f usec", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f msec", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f sec", seconds);
  }
  return buf;
}

}  // namespace cabt::bench
