// Immutable, image-keyed shared program artifacts (DESIGN.md section 14).
//
// Everything the execution engines and the translator precompute from a
// program image and an architecture description — the block graph with
// its one record per block (instructions, successors, static cycles,
// issue schedule, cache analysis blocks; core/block_graph.h), the
// instruction address index, the symbol index and the content
// fingerprint — is a pure function of (image, pipeline model, branch
// model, icache geometry, extra leaders). A ProgramArtifact packages that
// computation once, immutable after construction; the process-wide
// ProgramArtifactCache hands the same `shared_ptr<const ProgramArtifact>`
// to every board/core running the same image under the same timing
// configuration, and to the translator, so a thousand-board fleet and
// its translations pay one decode (decode once, execute everywhere).
//
// The artifact is never written after publication. All mutable residue —
// hot counters and lowered threaded programs (blocks and traces) — lives
// in the per-core BlockCache overlay (block_cache.h), which holds a
// shared_ptr to its artifact and points into it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "arch/arch.h"
#include "core/block_graph.h"
#include "elf/elf.h"

namespace cabt::core {

/// One decoded, scheduled, indexed program image. Immutable after
/// construction — every accessor is const and the object is only ever
/// handed out as `shared_ptr<const ProgramArtifact>`.
class ProgramArtifact {
 public:
  ProgramArtifact(const arch::ArchDescription& desc,
                  const elf::Object& object,
                  const std::vector<uint32_t>& extra_leaders);

  /// The block graph and its per-block records (core::Block).
  [[nodiscard]] const BlockGraph& graph() const { return graph_; }
  /// Instruction address -> index into graph().instrs() (the stepping
  /// engine's fetch path).
  [[nodiscard]] const std::unordered_map<uint32_t, uint32_t>& instrByAddr()
      const {
    return instr_by_addr_;
  }
  [[nodiscard]] const elf::SymbolIndex& symbols() const { return symbols_; }
  /// Content fingerprint of the decoded program (instruction words plus
  /// leaders). Byte-compatible with the pre-artifact snapshot field, so
  /// existing snapshots and golden digests keep validating.
  [[nodiscard]] uint64_t fingerprint() const { return fingerprint_; }
  /// The branch model the artifact was scheduled under; per-core
  /// threaded lowering copies it from here.
  [[nodiscard]] const arch::BranchModel& branch() const { return branch_; }

 private:
  BlockGraph graph_;
  std::unordered_map<uint32_t, uint32_t> instr_by_addr_;
  elf::SymbolIndex symbols_;
  arch::BranchModel branch_;
  uint64_t fingerprint_ = 0;
};

/// Process-wide artifact cache, keyed on (image content, timing config,
/// extra leaders). Holds weak references: artifacts stay alive exactly
/// as long as some board/core uses them, so a fuzzing campaign churning
/// through thousands of generated images does not accumulate them, while
/// a live fleet of M boards on one image shares a single decode.
class ProgramArtifactCache {
 public:
  struct Stats {
    uint64_t hits = 0;     ///< acquire() served from a live artifact
    uint64_t decodes = 0;  ///< acquire() had to build (miss or expired)
  };

  static ProgramArtifactCache& instance();

  /// Returns the shared artifact for (object, desc, extra_leaders),
  /// building it on first use. Thread-safe; concurrent acquires of the
  /// same key during construction serialize on one decode.
  std::shared_ptr<const ProgramArtifact> acquire(
      const arch::ArchDescription& desc, const elf::Object& object,
      const std::vector<uint32_t>& extra_leaders = {});

  /// Acquires every image's artifact under one (desc, extra_leaders)
  /// key, in image order. Holding the result pins them: boards built
  /// and destroyed one after another on these images, under that key,
  /// then share one decode per image instead of each re-decoding an
  /// expired entry. Throws what the decode throws.
  std::vector<std::shared_ptr<const ProgramArtifact>> pin(
      const arch::ArchDescription& desc,
      const std::vector<const elf::Object*>& images,
      const std::vector<uint32_t>& extra_leaders);

  [[nodiscard]] Stats stats() const;
  /// Number of cache entries holding a still-live artifact.
  [[nodiscard]] size_t size() const;
  /// Drops every entry and zeroes the stats (tests and benches; live
  /// shared_ptrs keep their artifacts alive, only the cache forgets).
  void clear();

 private:
  using Key = std::pair<uint64_t, uint64_t>;  // (image hash, config hash)

  mutable std::mutex mu_;
  std::map<Key, std::weak_ptr<const ProgramArtifact>> entries_;
  Stats stats_;
};

}  // namespace cabt::core
