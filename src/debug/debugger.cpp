#include "debug/debugger.h"

#include "common/strutil.h"
#include "vliw/isa.h"
#include "xlat/regmap.h"

namespace cabt::debug {

DualTranslation translateDual(const arch::ArchDescription& desc,
                              const elf::Object& source,
                              xlat::DetailLevel level) {
  DualTranslation dual;

  xlat::TranslateOptions block_opts;
  block_opts.level = level;
  dual.block = xlat::translate(desc, source, block_opts);

  // The instruction-oriented image is placed beside the block image
  // (xlat::kInstrTextBase). The cache state area stays shared: both
  // images simulate the same instruction cache, so switching between
  // them keeps the state consistent.
  xlat::TranslateOptions instr_opts;
  instr_opts.level = level;
  instr_opts.instruction_oriented = true;
  dual.instr = xlat::translate(desc, source, instr_opts);

  // Merge: everything from the block image, plus the instruction image's
  // code and dispatch table (data sections are identical copies).
  dual.image = dual.block.image;
  for (const elf::Section& s : dual.instr.image.sections) {
    if (s.name == xlat::kInstrTextSection || s.name == ".jumptab") {
      elf::Section copy = s;
      if (s.name == ".jumptab") {
        copy.name = ".jumptab.instr";
      }
      dual.image.sections.push_back(std::move(copy));
    }
  }

  // Build the yield-PC map: each unit's first packet is the YIELD packet;
  // the machine stops right after it.
  const elf::Section* itext = dual.image.findSection(xlat::kInstrTextSection);
  CABT_ASSERT(itext != nullptr, "instruction image lost in merge");
  std::map<uint32_t, uint32_t> packet_size;
  for (const vliw::Packet& p :
       vliw::decodeProgram(itext->data, itext->addr)) {
    packet_size.emplace(p.addr, p.sizeBytes());
  }
  for (const auto& [src, unit_start] : dual.instr.instr_map) {
    const auto it = packet_size.find(unit_start);
    CABT_ASSERT(it != packet_size.end(), "unit start is not a packet");
    dual.yield_pc_to_src.emplace(unit_start + it->second, src);
  }
  return dual;
}

Debugger::Debugger(const arch::ArchDescription& desc,
                   const elf::Object& source, xlat::DetailLevel level)
    : desc_(desc),
      dual_(translateDual(desc, source, level)),
      platform_(desc, dual_.image) {
  current_src_ = source.entry;
  // The instruction image's prologue never runs (execution starts in the
  // block image), so its dispatch constant is installed here.
  const elf::Section* src_text = source.findSection(".text");
  platform_.sim().setReg(xlat::kAltDispatchReg,
                         xlat::kInstrJumpTableBase - 2u * src_text->addr);
}

void Debugger::addBreakpoint(uint32_t src_addr) {
  static_cast<void>(blockOf(src_addr));  // validates the address
  breakpoints_.insert(src_addr);
}

void Debugger::removeBreakpoint(uint32_t src_addr) {
  breakpoints_.erase(src_addr);
}

const xlat::BlockInfo& Debugger::blockOf(uint32_t src_addr) const {
  const auto& blocks = dual_.block.blocks;
  auto it = blocks.upper_bound(src_addr);
  CABT_CHECK(it != blocks.begin(),
             "address " << hex32(src_addr) << " precedes the program");
  --it;
  return it->second;
}

void Debugger::armBlockBreakpoints() {
  for (const uint32_t bp : breakpoints_) {
    platform_.sim().addBreakpoint(blockOf(bp).tgt_addr);
  }
}

void Debugger::disarmBlockBreakpoints() {
  for (const uint32_t bp : breakpoints_) {
    platform_.sim().removeBreakpoint(blockOf(bp).tgt_addr);
  }
}

void Debugger::enterInstrImage(uint32_t src_leader) {
  const auto it = dual_.instr.instr_map.find(src_leader);
  CABT_CHECK(it != dual_.instr.instr_map.end(),
             "no instruction unit at " << hex32(src_leader));
  platform_.sim().setPc(it->second);
  // Consume the unit's leading YIELD: the machine is now poised right
  // before the instruction executes.
  const vliw::RunState state = platform_.sim().run(platform_.config().max_cycles);
  CABT_CHECK(state == vliw::RunState::kYielded,
             "expected the leading YIELD of the instruction unit");
  current_src_ = src_leader;
  mode_ = Mode::kInstr;
}

Stop Debugger::instrStep() {
  const vliw::RunState state =
      platform_.sim().run(platform_.config().max_cycles);
  if (state == vliw::RunState::kHalted) {
    halted_ = true;
    return {StopKind::kHalted, 0};
  }
  CABT_CHECK(state == vliw::RunState::kYielded,
             "unexpected stop while single-stepping");
  const auto it = dual_.yield_pc_to_src.find(platform_.sim().pc());
  CABT_CHECK(it != dual_.yield_pc_to_src.end(),
             "yield at unmapped PC " << hex32(platform_.sim().pc()));
  current_src_ = it->second;
  return {StopKind::kStep, current_src_};
}

std::optional<Stop> Debugger::stepToBreakpointOrLeader() {
  for (;;) {
    const Stop s = instrStep();
    if (s.kind == StopKind::kHalted) {
      return s;
    }
    if (breakpoints_.count(current_src_) != 0) {
      return Stop{StopKind::kBreakpoint, current_src_};
    }
    const auto leader = dual_.block.blocks.find(current_src_);
    if (leader != dual_.block.blocks.end()) {
      // Block leader: switch back to the fast image.
      platform_.sim().setPc(leader->second.tgt_addr);
      mode_ = Mode::kBlock;
      return std::nullopt;
    }
  }
}

Stop Debugger::run() {
  CABT_CHECK(!halted_, "program has halted");
  for (;;) {
    if (mode_ == Mode::kInstr) {
      // Paused in the instruction image (after a step or a mid-block
      // breakpoint): execute the stopped-at instruction, then step on.
      if (const std::optional<Stop> s = stepToBreakpointOrLeader()) {
        return *s;
      }
    }
    armBlockBreakpoints();
    const vliw::RunState state =
        at_block_breakpoint_
            ? platform_.sim().resume(platform_.config().max_cycles)
            : platform_.sim().run(platform_.config().max_cycles);
    at_block_breakpoint_ = false;
    disarmBlockBreakpoints();
    if (state == vliw::RunState::kHalted) {
      halted_ = true;
      return {StopKind::kHalted, 0};
    }
    CABT_CHECK(state == vliw::RunState::kBreakpoint,
               "unexpected stop in block image");
    // Which source block is this?
    uint32_t block_src = 0;
    for (const auto& [src, info] : dual_.block.blocks) {
      if (info.tgt_addr == platform_.sim().pc()) {
        block_src = src;
        break;
      }
    }
    CABT_CHECK(block_src != 0, "breakpoint at unmapped target address");
    current_src_ = block_src;
    if (breakpoints_.count(block_src) != 0) {
      at_block_breakpoint_ = true;
      return {StopKind::kBreakpoint, block_src};
    }
    // Mid-block breakpoint: enter the instruction image at the block
    // start, which holds none, and single-step to it.
    enterInstrImage(block_src);
  }
}

Stop Debugger::step() {
  CABT_CHECK(!halted_, "program has halted");
  if (mode_ == Mode::kBlock) {
    // Enter the instruction image at the current block leader. If we are
    // stopped at a block-image breakpoint the leader is current_src_;
    // at program start it is the entry.
    at_block_breakpoint_ = false;
    enterInstrImage(current_src_);
  }
  return instrStep();
}

uint32_t Debugger::regByName(const std::string& name) const {
  CABT_CHECK(name.size() >= 2 && (name[0] == 'd' || name[0] == 'a'),
             "register name must be dN or aN, got '" << name << "'");
  const int n = static_cast<int>(parseInt(name.substr(1)));
  CABT_CHECK(n >= 0 && n < 16, "register index out of range in '" << name
                                                                  << "'");
  return name[0] == 'd' ? d(n) : a(n);
}

uint32_t Debugger::readMemory(uint32_t src_addr, unsigned size) const {
  const MemRegion* region = desc_.memory_map.find(src_addr);
  const uint32_t tgt =
      region != nullptr ? region->remap(src_addr) : src_addr;
  return platform_.sim().memory().read(tgt, size);
}

}  // namespace cabt::debug
