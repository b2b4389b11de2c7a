// Architecture description of the source processor.
//
// The paper describes the source processor (pipelines, caches, instruction
// timing, memory map) in an XML file that a tool turns into C++ classes.
// Here the same data is loaded at runtime from an XML subset (see
// DESIGN.md for the substitution note). The description is the single
// source of timing truth: the reference ISS, the translator's static cycle
// calculator and the RT-level model all consume this structure, which is
// what makes detail level 3 able to reproduce the reference cycle count.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/memmap.h"

namespace cabt::arch {

/// Micro-architectural classification of a source instruction. The IP
/// (integer) and LS (load/store) pipelines of the TRC32 can each accept
/// one instruction per cycle; see PipelineModel for the pairing rule.
enum class OpClass : uint8_t {
  kIpAlu,        ///< data-register ALU op (IP pipeline, 1-cycle result)
  kMul,          ///< multiply (IP pipeline, longer result latency)
  kLsAlu,        ///< address-register ALU op (LS pipeline, 1-cycle result)
  kLoad,         ///< memory load (LS pipeline, load-use delay)
  kStore,        ///< memory store (LS pipeline)
  kBranchCond,   ///< conditional direct branch
  kBranchUncond, ///< unconditional direct branch
  kCall,         ///< direct call (writes the link register)
  kBranchInd,    ///< indirect branch (return)
  kNop,          ///< no-operation (IP pipeline)
  kHalt,         ///< simulation stop
};

/// True for every class that transfers control.
constexpr bool isControlTransfer(OpClass c) {
  return c == OpClass::kBranchCond || c == OpClass::kBranchUncond ||
         c == OpClass::kCall || c == OpClass::kBranchInd;
}

/// Which pipeline an op class occupies.
enum class Pipe : uint8_t { kIp, kLs };

constexpr Pipe pipeOf(OpClass c) {
  switch (c) {
    case OpClass::kLsAlu:
    case OpClass::kLoad:
    case OpClass::kStore:
      return Pipe::kLs;
    default:
      return Pipe::kIp;
  }
}

/// Issue-pairing and result-latency model of the dual-pipeline core.
struct PipelineModel {
  /// When true, an IP-class instruction immediately followed in program
  /// order by an LS-class instruction can issue in the same cycle,
  /// provided the LS instruction does not read the IP result.
  bool dual_issue = true;
  /// Result latency per class: number of cycles after issue before a
  /// dependent instruction can issue. 1 = full forwarding.
  unsigned alu_latency = 1;
  unsigned mul_latency = 2;
  unsigned load_latency = 2;

  [[nodiscard]] unsigned resultLatency(OpClass c) const {
    switch (c) {
      case OpClass::kMul:
        return mul_latency;
      case OpClass::kLoad:
        return load_latency;
      default:
        return alu_latency;
    }
  }
};

/// Branch-cost model with static prediction (backward taken / forward
/// not taken, the TriCore scheme). Every control transfer occupies one
/// issue cycle (counted by the pipeline timer); the extras below are added
/// on top depending on the outcome.
struct BranchModel {
  unsigned taken_predicted_extra = 1;  ///< refill after a predicted-taken hit
  unsigned mispredict_extra = 2;       ///< flush after a misprediction
  unsigned indirect_extra = 2;         ///< indirect targets are never predicted

  /// Static prediction for a conditional branch with displacement `disp`
  /// (bytes, relative to the branch address): backward means predicted
  /// taken.
  [[nodiscard]] static bool predictsTaken(int32_t disp) { return disp < 0; }

  /// Extra cycles of a conditional branch given the static prediction and
  /// the actual outcome.
  [[nodiscard]] unsigned conditionalExtra(bool predicted_taken,
                                          bool taken) const {
    if (taken) {
      return predicted_taken ? taken_predicted_extra : mispredict_extra;
    }
    return predicted_taken ? mispredict_extra : 0;
  }

  /// Extra cycles of an unconditional control transfer of class `c`
  /// (fully static: these never need dynamic correction).
  [[nodiscard]] unsigned unconditionalExtra(OpClass c) const {
    switch (c) {
      case OpClass::kBranchUncond:
      case OpClass::kCall:
        return taken_predicted_extra;
      case OpClass::kBranchInd:
        return indirect_extra;
      default:
        return 0;
    }
  }
};

/// Instruction-cache geometry. The fetch rule is: executing an instruction
/// touches the cache line containing its first byte (the fetch buffer
/// prefetches the straddled remainder of mixed 16/32-bit instructions);
/// consecutive touches of the same line within one basic block count as a
/// single access, and the touch sequence restarts at every basic-block
/// boundary. core::BlockGraph applies this rule once, as each block's
/// cache analysis blocks, for the ISS and the translator alike.
struct ICacheModel {
  bool enabled = true;
  uint32_t sets = 64;
  uint32_t ways = 2;
  uint32_t line_bytes = 16;
  uint32_t miss_penalty = 8;  ///< cycles added per line miss

  [[nodiscard]] unsigned offsetBits() const;
  [[nodiscard]] unsigned setBits() const;
  [[nodiscard]] uint32_t lineOf(uint32_t addr) const {
    return addr >> offsetBits();
  }
  [[nodiscard]] uint32_t setOf(uint32_t addr) const {
    return lineOf(addr) & (sets - 1);
  }
  [[nodiscard]] uint32_t tagOf(uint32_t addr) const {
    return lineOf(addr) >> setBits();
  }
  void validate() const;
};

/// Complete description of a source processor.
struct ArchDescription {
  std::string name = "trc32-tc10gp";
  uint64_t clock_hz = 48'000'000;
  PipelineModel pipeline;
  BranchModel branch;
  ICacheModel icache;
  ICacheModel dcache;  ///< parsed for completeness; translation of data
                       ///< caches is future work in the paper as well
  MemoryMap memory_map;

  /// The default TC10GP-flavoured description used throughout the repo.
  static ArchDescription defaultTc10gp();
};

/// Parses an <processor> XML document into an ArchDescription.
ArchDescription parseArchXml(std::string_view xml_text);

/// The default description as XML (round-trips through parseArchXml; also
/// serves as schema documentation).
std::string defaultArchXml();

}  // namespace cabt::arch
