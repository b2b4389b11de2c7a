// Debugging of translated code (paper section 3.5).
//
// The debug runtime keeps *two* translations of the program in one V6X
// address space:
//   * the block-oriented image (normal cycle generation per basic block),
//     used for full-speed execution, and
//   * the instruction-oriented image, in which every source instruction
//     is its own annotated unit prefixed by a YIELD into the debug
//     runtime, used for single stepping.
// Breakpoints are always planted at the beginning of the basic block that
// contains the requested source address ("Break points ... are always set
// at the beginning of a basic block"); the debugger then switches to the
// instruction-oriented image and single-steps "to get to the real break
// point". Register names and addresses are translated through the fixed
// register binding (xlat/regmap.h).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "arch/arch.h"
#include "elf/elf.h"
#include "platform/platform.h"
#include "xlat/translator.h"

namespace cabt::debug {

/// The two coexisting translations plus the address maps between the
/// source program and both images.
struct DualTranslation {
  elf::Object image;  ///< merged: both code images + shared data
  xlat::TranslationResult block;
  xlat::TranslationResult instr;
  /// PC right after each instruction unit's YIELD packet -> source
  /// address of the instruction about to execute.
  std::map<uint32_t, uint32_t> yield_pc_to_src;
};

/// Translates `source` twice and merges the images (paper: "the debug
/// code contains two translations of the original code").
DualTranslation translateDual(const arch::ArchDescription& desc,
                              const elf::Object& source,
                              xlat::DetailLevel level =
                                  xlat::DetailLevel::kStatic);

enum class StopKind {
  kBreakpoint,  ///< stopped at a requested source address
  kStep,        ///< one source instruction executed
  kHalted,
};

struct Stop {
  StopKind kind = StopKind::kHalted;
  uint32_t src_addr = 0;  ///< source PC about to execute (not for kHalted)
};

class Debugger {
 public:
  Debugger(const arch::ArchDescription& desc, const elf::Object& source,
           xlat::DetailLevel level = xlat::DetailLevel::kStatic);

  void addBreakpoint(uint32_t src_addr);
  void removeBreakpoint(uint32_t src_addr);

  /// Runs at full speed (block image) until a breakpoint or halt;
  /// mid-block breakpoints are reached by automatic single stepping.
  /// After any stop, the stopped-at instruction executes before a
  /// breakpoint is honoured, so each run() makes progress.
  Stop run();

  /// Executes exactly one source instruction.
  Stop step();

  /// Source address of the next instruction to execute (only meaningful
  /// while stopped at a breakpoint or step).
  [[nodiscard]] uint32_t currentSrc() const { return current_src_; }

  /// Architectural register access by source name ("d0".."d15",
  /// "a0".."a15"); translates through the register binding.
  [[nodiscard]] uint32_t regByName(const std::string& name) const;
  [[nodiscard]] uint32_t d(int i) const { return platform_.srcD(i); }
  [[nodiscard]] uint32_t a(int i) const { return platform_.srcA(i); }

  /// Reads source-address-space memory (applies the data remapping).
  [[nodiscard]] uint32_t readMemory(uint32_t src_addr, unsigned size) const;

  [[nodiscard]] platform::EmulationPlatform& platform() {
    return platform_;
  }
  [[nodiscard]] const DualTranslation& dual() const { return dual_; }

 private:
  enum class Mode { kBlock, kInstr };

  /// Source block containing `src_addr`.
  [[nodiscard]] const xlat::BlockInfo& blockOf(uint32_t src_addr) const;
  /// Enters the instruction image at a block leader; consumes the leading
  /// YIELD so the machine is "about to execute" that instruction.
  void enterInstrImage(uint32_t src_leader);
  /// One instruction-image step; updates current_src_ / halted state.
  Stop instrStep();
  /// Executes the instruction the instruction image is poised at, then
  /// steps until a requested breakpoint or a halt (returned) or the next
  /// block leader (switches to the block image, returns nullopt).
  std::optional<Stop> stepToBreakpointOrLeader();
  void armBlockBreakpoints();
  void disarmBlockBreakpoints();

  arch::ArchDescription desc_;
  DualTranslation dual_;
  platform::EmulationPlatform platform_;
  std::set<uint32_t> breakpoints_;
  Mode mode_ = Mode::kBlock;
  uint32_t current_src_ = 0;
  bool halted_ = false;
  bool at_block_breakpoint_ = false;
};

}  // namespace cabt::debug
