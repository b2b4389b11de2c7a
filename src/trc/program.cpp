#include "trc/program.h"

#include "common/error.h"
#include "common/strutil.h"

namespace cabt::trc {

std::vector<Instr> decodeText(const elf::Object& object) {
  const elf::Section* text = object.findSection(".text");
  CABT_CHECK(text != nullptr, "object has no .text section");
  std::vector<Instr> out;
  uint32_t off = 0;
  while (off < text->data.size()) {
    Instr instr = decode(text->data.data() + off, text->data.size() - off,
                         text->addr + off);
    off += instr.size;
    out.push_back(instr);
  }
  return out;
}

std::set<uint32_t> findLeaders(const elf::Object& object,
                               const std::vector<Instr>& instrs) {
  std::set<uint32_t> leaders;
  leaders.insert(object.entry);
  for (const Instr& instr : instrs) {
    if (instr.opc == Opc::kHalt) {
      // Execution stops at HALT, so what follows it (alignment padding,
      // dead code) must not join its block and its static cycle count.
      leaders.insert(instr.addr + instr.size);
      continue;
    }
    if (!instr.isControlTransfer()) {
      continue;
    }
    // The instruction after any control transfer starts a block.
    leaders.insert(instr.addr + instr.size);
    // Direct targets; indirect targets are return addresses, which are
    // already leaders via the post-call rule.
    if (instr.cls() != arch::OpClass::kBranchInd) {
      leaders.insert(instr.branchTarget());
    }
  }
  // Drop leaders outside .text (e.g. the address right after the final
  // instruction).
  const elf::Section* text = object.findSection(".text");
  std::set<uint32_t> inside;
  for (uint32_t leader : leaders) {
    if (text->contains(leader)) {
      inside.insert(leader);
    }
  }
  return inside;
}

std::set<uint32_t> findLeaders(const elf::Object& object) {
  return findLeaders(object, decodeText(object));
}

}  // namespace cabt::trc
