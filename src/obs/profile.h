// Guest sampling profiler (DESIGN.md section 11).
//
// A PcSampler records the guest PC at basic-block boundaries whenever
// local time crosses a configurable guest-cycle period. Sampling is a
// pure function of (local time, pc): the due-time ladder advances in
// fixed period steps and re-observations of the same boundary (a
// quantum yield resuming) are idempotent, so the sample stream is
// bit-identical across both ISS engines. Samplers are per-core.
//
// Attribution maps each sampled PC to its enclosing function through
// elf::SymbolIndex; reports come as a top-N table and as
// flamegraph-folded lines ("core0;funcname count").
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "elf/elf.h"

namespace cabt::obs {

class PcSampler {
 public:
  /// Samples once every `period` guest cycles (>= 1).
  explicit PcSampler(uint64_t period)
      : period_(period < 1 ? 1 : period), next_due_(period_) {}

  /// Block-boundary hook: records pc once per elapsed period. Inline
  /// fast path — one compare when no sample is due.
  void sample(uint64_t now, uint32_t pc) {
    if (now < next_due_) {
      return;
    }
    record(now, pc);
  }

  [[nodiscard]] uint64_t period() const { return period_; }
  [[nodiscard]] uint64_t totalSamples() const { return total_; }
  [[nodiscard]] const std::unordered_map<uint32_t, uint64_t>& counts() const {
    return counts_;
  }

 private:
  void record(uint64_t now, uint32_t pc);

  uint64_t period_;
  uint64_t next_due_;
  uint64_t total_ = 0;
  std::unordered_map<uint32_t, uint64_t> counts_;
};

/// One attributed row of a profile report.
struct ProfileEntry {
  std::string name;      ///< function name, or "0x...." when unsymbolized
  uint64_t samples = 0;
  uint32_t addr = 0;     ///< lowest sampled pc attributed to this row
};

/// Aggregates a sampler's PC counts by enclosing function, sorted by
/// sample count descending (ties by name, so output is deterministic).
[[nodiscard]] std::vector<ProfileEntry> attributeSamples(
    const PcSampler& sampler, const elf::SymbolIndex& symbols);

/// Flamegraph-foldable lines: "<label>;<name> <count>\n" per entry
/// (one frame deep — guest stacks are not walked).
[[nodiscard]] std::string foldedLines(
    const std::string& label, const std::vector<ProfileEntry>& entries);

/// Human-readable top-N table ("rank samples share% function").
[[nodiscard]] std::string topTable(const std::vector<ProfileEntry>& entries,
                                   size_t top_n);

}  // namespace cabt::obs
