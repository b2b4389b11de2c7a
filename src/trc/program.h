// Static program analysis helpers over a TRC32 ELF image.
//
// The assembler emits pure code in .text (no inline data), so a linear
// sweep decodes every instruction exactly once. Leaders (basic-block start
// addresses) are shared knowledge between the translator's basic-block
// builder and the reference ISS: the TRC32 pipeline drains at every
// control transfer and at every static branch target (DESIGN.md).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "elf/elf.h"
#include "trc/isa.h"

namespace cabt::trc {

/// Decodes the whole .text section in address order.
std::vector<Instr> decodeText(const elf::Object& object);

/// Basic-block leader addresses: the entry point, every direct branch /
/// call target, and every address following a control transfer or a
/// HALT. (BKPT ends no block: it stops the core past itself, and the
/// next run resumes with the next instruction inside the same block, in
/// the ISS as in the translated code, where it is a V6X YIELD.)
std::set<uint32_t> findLeaders(const elf::Object& object,
                               const std::vector<Instr>& instrs);

/// Convenience overload that decodes internally.
std::set<uint32_t> findLeaders(const elf::Object& object);

}  // namespace cabt::trc
