// The paper's example programs (section 4), written in TRC32 assembly.
//
// Figure 5 / Table 1 / Figure 6 use: gcd, dpcm, fir, ellip, sieve,
// subband. Table 2 uses: gcd, fibonacci, sieve. The programs mirror the
// paper's characterisation: gcd and sieve are control-flow dominated with
// many small basic blocks; fir and ellip are filters; dpcm and subband
// are audio-coding kernels; ellip and subband have large basic blocks.
//
// Every workload stores a final checksum to the `result` symbol in .data
// and halts; array inputs are generated at run time by a small LCG init
// loop so the images stay compact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/sparse_mem.h"
#include "elf/elf.h"

namespace cabt::workloads {

struct Workload {
  std::string name;
  std::string description;
  std::string source;  ///< TRC32 assembly
  /// Hand-computed expected checksum, when independently known.
  std::optional<uint32_t> expected_checksum;
  bool large_blocks = false;  ///< paper: "examples with large basic blocks"
  /// Interrupt handler entry symbol ("" when the program takes no
  /// interrupts). It must be an iss::IssConfig::extra_leaders entry —
  /// handler entries are invisible to static control flow; BoardImages
  /// resolves it into extraLeaders().
  std::string irq_handler;
};

/// All workloads, in the paper's presentation order (gcd, dpcm, fir,
/// ellip, sieve, subband, fibonacci).
const std::vector<Workload>& all();

/// SoC-scenario programs beyond the paper's figure set: interrupt-driven
/// and multi-core workloads for the reference board's interrupt
/// controller / programmable timer / mailbox (irq_ticks, mc_producer,
/// mc_consumer) plus the compute-heavy mc_worker used by the N-core
/// boards. They require the board's peripherals and are
/// not run through the translator comparisons.
const std::vector<Workload>& scenarios();

/// Lookup by name across all() and scenarios(); throws cabt::Error when
/// unknown.
const Workload& get(std::string_view name);

/// The six programs of Figure 5 / Table 1 / Figure 6.
std::vector<std::string> figure5Names();
/// The three programs of Table 2.
std::vector<std::string> table2Names();

/// Assembles a workload into a TRC32 ELF image.
elf::Object assemble(const Workload& workload);

/// Reads the `result` word from a memory image, resolving the symbol via
/// the source object (applies `remap_delta` for translated memory).
uint32_t readChecksum(const elf::Object& source, const SparseMemory& memory,
                      uint32_t remap_delta = 0);

/// The program images of one reference board, assembled once and shared
/// by every board built from them: the images, the pointer list
/// platform::ReferenceBoard takes, and the interrupt-handler entries to
/// pass as iss::IssConfig::extra_leaders.
class BoardImages {
 public:
  /// One core per workload, in order.
  explicit BoardImages(std::vector<Workload> programs);
  /// Workloads looked up by name (see get()).
  static BoardImages named(const std::vector<std::string>& names);
  /// Raw TRC32 assembly sources, which take no interrupts; throws
  /// cabt::Error when a source does not assemble.
  static BoardImages assembled(const std::vector<std::string>& sources);
  /// The N-core scenario family: irq_ticks alone (N = 1), mc_producer +
  /// mc_consumer (N = 2), then that pair plus N - 2 mc_worker cores.
  static BoardImages family(size_t cores);

  [[nodiscard]] const std::vector<Workload>& programs() const {
    return programs_;
  }
  [[nodiscard]] const elf::Object& image(size_t i) const {
    return images_.at(i);
  }
  /// One image per core, in core order; valid while this object lives.
  [[nodiscard]] std::vector<const elf::Object*> ptrs() const;
  [[nodiscard]] const std::vector<uint32_t>& extraLeaders() const {
    return extra_leaders_;
  }

  /// Adds `symbol` of image `i` as an extra block leader: an entry that
  /// static control flow never reaches, such as a fault's pc target.
  void addLeader(size_t i, std::string_view symbol);

 private:
  std::vector<Workload> programs_;
  std::vector<elf::Object> images_;
  std::vector<uint32_t> extra_leaders_;
};

}  // namespace cabt::workloads
