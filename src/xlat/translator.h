// The cycle-accurate static binary translator (the paper's contribution).
//
// Translates a TRC32 ELF image into an annotated V6X ELF image following
// the paper's flow (Fig. 1):
//   decode -> basic blocks -> base-address analysis -> static cycle
//   calculation -> insertion of cycle generation code -> insertion of
//   dynamic correction code -> scheduling/binding -> object file.
//
// Decoding, basic-block construction, static cycle calculation and the
// cache analysis blocks live in the shared program-analysis layer
// `src/core/`: one record per block (core::Block), computed once per
// image and timing configuration in the shared ProgramArtifact. The
// reference ISS executes from the same records through its block cache,
// so the translated image and the ground truth agree on block
// boundaries, static schedules and cache-line touches by construction
// (DESIGN.md section 3).
//
// Four detail levels (paper section 3.2; level 0 is the paper's
// "C6x without cycle information" speed baseline):
//   kFunctional     no timing annotation at all
//   kStatic         per-block static cycle generation (Fig. 2)
//   kBranchPredict  + dynamic branch-prediction correction (section 3.4.1)
//   kICache         + dynamic instruction-cache simulation (section 3.4.2)
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "arch/arch.h"
#include "elf/elf.h"
#include "trc/isa.h"

namespace cabt::xlat {

enum class DetailLevel : uint8_t {
  kFunctional = 0,
  kStatic = 1,
  kBranchPredict = 2,
  kICache = 3,
};

/// The four detail levels, in paper order.
inline constexpr std::array<DetailLevel, 4> kDetailLevels = {
    DetailLevel::kFunctional,
    DetailLevel::kStatic,
    DetailLevel::kBranchPredict,
    DetailLevel::kICache,
};

const char* detailLevelName(DetailLevel level);

/// Placement of the translated image in the V6X address space: code,
/// indirect-jump table and cache state area. An instruction-oriented
/// image is the debugger's second image (debug::translateDual) and sits
/// beside the block-oriented one: its code goes to kInstrTextBase in
/// section kInstrTextSection, its table to kInstrJumpTableBase, and its
/// dispatch constant lives in kAltDispatchReg (xlat/regmap.h). Both
/// images share the cache state area, so switching between them keeps
/// the simulated cache consistent.
inline constexpr uint32_t kTextBase = 0x0010'0000;
inline constexpr uint32_t kJumpTableBase = 0x0020'0000;
inline constexpr uint32_t kCacheDataBase = 0x0028'0000;
inline constexpr uint32_t kInstrTextBase = 0x0030'0000;
inline constexpr uint32_t kInstrJumpTableBase = 0x0038'0000;
inline constexpr const char* kInstrTextSection = ".text.instr";

struct TranslateOptions {
  DetailLevel level = DetailLevel::kStatic;
  /// Inline the cache-correction routine into blocks with at least this
  /// many source instructions instead of calling it (paper: "In large
  /// basic blocks, this code can be included into the basic block").
  /// 0 disables inlining entirely.
  uint32_t inline_cache_threshold = 0;
  /// Instruction-oriented cycle generation: every source instruction
  /// becomes its own annotated unit followed by a YIELD into the debug
  /// runtime (paper section 3.5; used for single-stepping). The image is
  /// placed for the debugger's dual translation (see kInstrTextBase).
  bool instruction_oriented = false;
  /// Fault-injection drill for the fuzzing farm: add one bogus static
  /// cycle to every block with at least two instructions. Skews only the
  /// translated image's timing annotation — the ISS reference is
  /// untouched — so the differential oracle must flag it. Never enable
  /// outside tests.
  bool debug_skew_static_cycles = false;
};

/// Per-source-block translation record (also drives debugging).
struct BlockInfo {
  uint32_t src_addr = 0;
  uint32_t tgt_addr = 0;  ///< address of the block's first execute packet
  uint32_t num_instrs = 0;
  uint32_t static_cycles = 0;  ///< n of the block's "start cycle generation"
};

struct TranslationStats {
  uint64_t source_instructions = 0;  ///< static count
  uint64_t blocks = 0;
  uint64_t cabs = 0;
  /// CABs proven to hit the most recently used way of their set on every
  /// path (static count; no lookup code is emitted for them).
  uint64_t cab_lookups_elided = 0;
  uint64_t machine_ops = 0;
  uint64_t packets = 0;
  uint64_t code_bytes = 0;
  uint64_t io_accesses_classified = 0;  ///< mem ops with statically known IO
  uint64_t ram_accesses_classified = 0;
  uint64_t unknown_base_accesses = 0;
  uint64_t rewritten_movha = 0;  ///< base addresses changed to target space
};

struct TranslationResult {
  elf::Object image;
  /// Source basic-block address -> block record (tgt_addr filled in).
  std::map<uint32_t, BlockInfo> blocks;
  /// Source instruction address -> target packet address (only in
  /// instruction-oriented mode).
  std::map<uint32_t, uint32_t> instr_map;
  TranslationStats stats;
};

/// Translates `object` (a TRC32 ELF image) for the source processor
/// described by `desc`. Throws cabt::Error on unsupported input.
TranslationResult translate(const arch::ArchDescription& desc,
                            const elf::Object& object,
                            const TranslateOptions& options = {});

}  // namespace cabt::xlat
