#include "vliw/isa.h"

#include <array>

#include "common/bits.h"
#include "common/strutil.h"

namespace cabt::vliw {

std::string regName(uint8_t reg) {
  CABT_ASSERT(reg < 64, "bad register id " << int{reg});
  return std::string(1, isFileB(reg) ? 'b' : 'a') +
         std::to_string(fileIndex(reg));
}

std::string Unit::name() const {
  static const char* kKindNames = "lsmd";
  return std::string(1, kKindNames[static_cast<int>(kind)]) +
         std::to_string(side + 1);
}

uint8_t Pred::regId() const {
  switch (reg) {
    case PredReg::kA1:
      return regA(1);
    case PredReg::kA2:
      return regA(2);
    case PredReg::kB0:
      return regB(0);
    case PredReg::kNone:
      break;
  }
  CABT_FAIL("predicate register of an unpredicated op");
}

namespace {

struct VOpInfo {
  const char* name;
  bool imm_format;
  unsigned delay_slots;
  unsigned mem_size;  // 0 = not a memory op
  unsigned units;     // bitmask over UnitKind
  uint8_t encoding;
};

constexpr unsigned kUnitL = 1u << 0;
constexpr unsigned kUnitS = 1u << 1;
constexpr unsigned kUnitM = 1u << 2;
constexpr unsigned kUnitD = 1u << 3;

const std::array<VOpInfo, static_cast<size_t>(VOpc::kOpcCount)>& table() {
  static const auto t = [] {
    std::array<VOpInfo, static_cast<size_t>(VOpc::kOpcCount)> tab{};
    uint8_t next_reg = 1;
    uint8_t next_imm = 1;
    const auto add = [&tab, &next_reg, &next_imm](
                         VOpc opc, const char* name, bool imm, unsigned slots,
                         unsigned mem, unsigned units) {
      tab[static_cast<size_t>(opc)] = {name, imm, slots, mem, units,
                                       imm ? next_imm++ : next_reg++};
    };
    add(VOpc::kAdd, "add", false, 0, 0, kUnitL | kUnitS);
    add(VOpc::kSub, "sub", false, 0, 0, kUnitL | kUnitS);
    add(VOpc::kAnd, "and", false, 0, 0, kUnitL | kUnitS);
    add(VOpc::kOr, "or", false, 0, 0, kUnitL | kUnitS);
    add(VOpc::kXor, "xor", false, 0, 0, kUnitL | kUnitS);
    add(VOpc::kCmpEq, "cmpeq", false, 0, 0, kUnitL);
    add(VOpc::kCmpNe, "cmpne", false, 0, 0, kUnitL);
    add(VOpc::kCmpLt, "cmplt", false, 0, 0, kUnitL);
    add(VOpc::kCmpLtu, "cmpltu", false, 0, 0, kUnitL);
    add(VOpc::kCmpGt, "cmpgt", false, 0, 0, kUnitL);
    add(VOpc::kCmpGtu, "cmpgtu", false, 0, 0, kUnitL);
    add(VOpc::kCmpGe, "cmpge", false, 0, 0, kUnitL);
    add(VOpc::kCmpGeu, "cmpgeu", false, 0, 0, kUnitL);
    add(VOpc::kMv, "mv", false, 0, 0, kUnitL | kUnitS);
    add(VOpc::kShl, "shl", false, 0, 0, kUnitS);
    add(VOpc::kShr, "shr", false, 0, 0, kUnitS);
    add(VOpc::kSar, "sar", false, 0, 0, kUnitS);
    add(VOpc::kMpy, "mpy", false, 1, 0, kUnitM);
    add(VOpc::kLdw, "ldw", false, 4, 4, kUnitD);
    add(VOpc::kLdh, "ldh", false, 4, 2, kUnitD);
    add(VOpc::kLdhu, "ldhu", false, 4, 2, kUnitD);
    add(VOpc::kLdb, "ldb", false, 4, 1, kUnitD);
    add(VOpc::kLdbu, "ldbu", false, 4, 1, kUnitD);
    add(VOpc::kStw, "stw", false, 0, 4, kUnitD);
    add(VOpc::kSth, "sth", false, 0, 2, kUnitD);
    add(VOpc::kStb, "stb", false, 0, 1, kUnitD);
    add(VOpc::kBr, "br", false, 5, 0, kUnitS);
    add(VOpc::kMvk, "mvk", true, 0, 0, kUnitS);
    add(VOpc::kMvkh, "mvkh", true, 0, 0, kUnitS);
    add(VOpc::kAddk, "addk", true, 0, 0, kUnitS);
    add(VOpc::kB, "b", true, 5, 0, kUnitS);
    add(VOpc::kNop, "nop", true, 0, 0, 0);
    add(VOpc::kHalt, "halt", true, 0, 0, kUnitS);
    add(VOpc::kYield, "yield", true, 0, 0, kUnitS);
    return tab;
  }();
  return t;
}

const VOpInfo& info(VOpc opc) {
  CABT_ASSERT(opc != VOpc::kInvalid && opc != VOpc::kOpcCount,
              "bad V6X opcode");
  return table()[static_cast<size_t>(opc)];
}

VOpc findByEncoding(uint8_t encoding, bool imm_format) {
  for (size_t i = 1; i < static_cast<size_t>(VOpc::kOpcCount); ++i) {
    const VOpc opc = static_cast<VOpc>(i);
    if (info(opc).encoding == encoding &&
        info(opc).imm_format == imm_format) {
      return opc;
    }
  }
  CABT_FAIL("unknown V6X encoding " << int{encoding}
                                    << (imm_format ? " (imm)" : " (reg)"));
}

}  // namespace

bool isImmFormat(VOpc opc) { return info(opc).imm_format; }
bool isLoad(VOpc opc) { return info(opc).mem_size != 0 && info(opc).delay_slots == 4; }
bool isStore(VOpc opc) { return info(opc).mem_size != 0 && info(opc).delay_slots == 0; }
bool isMem(VOpc opc) { return info(opc).mem_size != 0; }
bool isBranch(VOpc opc) { return opc == VOpc::kB || opc == VOpc::kBr; }
unsigned delaySlots(VOpc opc) { return info(opc).delay_slots; }
unsigned memAccessSize(VOpc opc) {
  CABT_ASSERT(isMem(opc), "memAccessSize of non-memory op");
  return info(opc).mem_size;
}
unsigned allowedUnitsMask(VOpc opc) { return info(opc).units; }
bool unitAllowed(VOpc opc, UnitKind kind) {
  return (info(opc).units & (1u << static_cast<unsigned>(kind))) != 0;
}
const char* mnemonic(VOpc opc) { return info(opc).name; }

std::string MachineOp::toString() const {
  std::string out;
  if (!pred.always()) {
    out += "[";
    if (pred.z) {
      out += "!";
    }
    out += regName(pred.regId()) + "] ";
  }
  out += mnemonic(opc);
  if (opc != VOpc::kNop && info(opc).units != 0) {
    out += "." + unit.name();
  }
  const auto reg = [](uint8_t r) { return regName(r); };
  if (isMem(opc)) {
    out += " " + reg(dst) + ", [" + reg(src1) + "]" + std::to_string(imm);
  } else if (isImmFormat(opc)) {
    if (opc == VOpc::kB) {
      out += " " + hex32(static_cast<uint32_t>(imm));
    } else if (opc == VOpc::kNop || opc == VOpc::kHalt ||
               opc == VOpc::kYield) {
      if (opc == VOpc::kNop) {
        out += " " + std::to_string(imm);
      }
    } else {
      out += " " + reg(dst) + ", " + std::to_string(imm);
    }
  } else if (opc == VOpc::kBr) {
    out += " " + reg(src1);
  } else if (opc == VOpc::kMv) {
    out += " " + reg(dst) + ", " + reg(src1);
  } else {
    out += " " + reg(dst) + ", " + reg(src1) + ", " + reg(src2);
  }
  return out;
}

void validatePacket(const Packet& packet) {
  CABT_CHECK(!packet.ops.empty() && packet.ops.size() <= 8,
             "packet must contain 1..8 ops, has " << packet.ops.size());
  unsigned units_used = 0;
  int branches = 0;
  for (const MachineOp& op : packet.ops) {
    if (op.opc == VOpc::kNop) {
      CABT_CHECK(packet.ops.size() == 1, "NOP must be alone in its packet");
      CABT_CHECK(op.imm >= 1 && op.imm <= 9, "NOP count out of range");
      CABT_CHECK(op.pred.always(), "NOP cannot be predicated");
      continue;
    }
    CABT_CHECK(unitAllowed(op.opc, op.unit.kind),
               mnemonic(op.opc) << " cannot run on unit " << op.unit.name());
    const unsigned unit_bit = 1u << op.unit.id();
    CABT_CHECK((units_used & unit_bit) == 0,
               "unit " << op.unit.name() << " used twice in one packet");
    units_used |= unit_bit;
    if (isBranch(op.opc) || op.opc == VOpc::kHalt || op.opc == VOpc::kYield) {
      ++branches;
    }
    if (isMem(op.opc)) {
      CABT_CHECK(op.unit.side == (isFileB(op.src1) ? 1 : 0),
                 "memory op unit side must match the base register file");
    }
  }
  CABT_CHECK(branches <= 1, "more than one control op in a packet");
  // Same-destination writes in one cycle are only legal with complementary
  // predicates.
  for (size_t i = 0; i < packet.ops.size(); ++i) {
    for (size_t j = i + 1; j < packet.ops.size(); ++j) {
      const MachineOp& x = packet.ops[i];
      const MachineOp& y = packet.ops[j];
      if (isStore(x.opc) || isStore(y.opc) || x.opc == VOpc::kNop ||
          y.opc == VOpc::kNop || x.dst == kNoReg || y.dst == kNoReg) {
        continue;
      }
      if (x.dst == y.dst) {
        const bool complementary = !x.pred.always() && !y.pred.always() &&
                                   x.pred.reg == y.pred.reg &&
                                   x.pred.z != y.pred.z;
        CABT_CHECK(complementary,
                   "two writes to " << regName(x.dst) << " in one packet");
      }
    }
  }
}

namespace {

uint32_t encodeOp(const MachineOp& op, uint32_t addr, bool parallel) {
  const VOpInfo& i = info(op.opc);
  uint32_t w = 0;
  w = insertField(w, 0, 1, parallel ? 1 : 0);
  w = insertField(w, 1, 1, i.imm_format ? 1 : 0);
  // Predication.
  w = insertField(w, 30, 2, static_cast<uint32_t>(op.pred.reg));
  w = insertField(w, 29, 1, op.pred.z ? 1 : 0);

  const auto encReg = [&w](unsigned lo, uint8_t reg) {
    CABT_CHECK(reg < 64, "register id out of range");
    w = insertField(w, lo, 5, static_cast<uint32_t>(fileIndex(reg)));
    w = insertField(w, lo + 5, 1, isFileB(reg) ? 1 : 0);
  };

  if (i.imm_format) {
    w = insertField(w, 2, 4, i.encoding);
    if (op.dst != kNoReg) {
      encReg(6, op.dst);
    }
    int32_t imm = op.imm;
    if (op.opc == VOpc::kB) {
      const int64_t delta =
          static_cast<int64_t>(static_cast<uint32_t>(op.imm)) -
          static_cast<int64_t>(addr);
      CABT_CHECK(delta % 4 == 0, "branch target not word aligned");
      imm = static_cast<int32_t>(delta / 4);
    }
    if (op.opc == VOpc::kMvkh) {
      CABT_CHECK(imm >= 0 && fitsUnsigned(static_cast<uint32_t>(imm), 16),
                 "mvkh immediate out of range: " << imm);
    } else {
      CABT_CHECK(fitsSigned(imm, 16),
                 mnemonic(op.opc) << " immediate out of range: " << imm);
    }
    w = insertField(w, 12, 16, static_cast<uint32_t>(imm));
    w = insertField(w, 28, 1, op.unit.side);
    return w;
  }

  w = insertField(w, 2, 6, i.encoding);
  if (op.dst != kNoReg) {
    encReg(8, op.dst);
  }
  if (op.src1 != kNoReg) {
    encReg(14, op.src1);
  }
  if (isMem(op.opc)) {
    const unsigned scale = i.mem_size;
    const int32_t off = op.imm;
    CABT_CHECK(off % static_cast<int32_t>(scale) == 0,
               "memory offset " << off << " not a multiple of " << scale);
    const int32_t scaled = off / static_cast<int32_t>(scale);
    CABT_CHECK(scaled >= -31 && scaled <= 31,
               "memory offset " << off << " out of encodable range");
    w = insertField(w, 20, 5, static_cast<uint32_t>(
                                  scaled < 0 ? -scaled : scaled));
    w = insertField(w, 25, 1, scaled < 0 ? 1 : 0);
  } else if (op.src2 != kNoReg) {
    encReg(20, op.src2);
  }
  w = insertField(w, 26, 2, static_cast<uint32_t>(op.unit.kind));
  w = insertField(w, 28, 1, op.unit.side);
  return w;
}

MachineOp decodeOp(uint32_t w, uint32_t addr, bool* parallel) {
  *parallel = bitField(w, 0, 1) != 0;
  MachineOp op;
  op.pred.reg = static_cast<PredReg>(bitField(w, 30, 2));
  op.pred.z = bitField(w, 29, 1) != 0;

  const auto decReg = [w](unsigned lo) -> uint8_t {
    const uint8_t idx = static_cast<uint8_t>(bitField(w, lo, 5));
    return bitField(w, lo + 5, 1) != 0 ? regB(idx) : regA(idx);
  };

  if (bitField(w, 1, 1) != 0) {  // imm format
    op.opc = findByEncoding(static_cast<uint8_t>(bitField(w, 2, 4)), true);
    op.dst = decReg(6);
    int32_t imm = signExtend(bitField(w, 12, 16), 16);
    if (op.opc == VOpc::kMvkh || op.opc == VOpc::kNop) {
      imm = static_cast<int32_t>(bitField(w, 12, 16));
    }
    if (op.opc == VOpc::kB) {
      imm = static_cast<int32_t>(addr + static_cast<uint32_t>(imm * 4));
    }
    op.imm = imm;
    op.unit = {UnitKind::kS, static_cast<uint8_t>(bitField(w, 28, 1))};
    if (op.opc == VOpc::kNop || op.opc == VOpc::kB || op.opc == VOpc::kHalt ||
        op.opc == VOpc::kYield) {
      op.dst = kNoReg;
    }
    return op;
  }

  op.opc = findByEncoding(static_cast<uint8_t>(bitField(w, 2, 6)), false);
  op.dst = decReg(8);
  op.src1 = decReg(14);
  if (isMem(op.opc)) {
    const int32_t mag = static_cast<int32_t>(bitField(w, 20, 5));
    const int32_t scaled = bitField(w, 25, 1) != 0 ? -mag : mag;
    op.imm = scaled * static_cast<int32_t>(memAccessSize(op.opc));
  } else {
    op.src2 = decReg(20);
    if (op.opc == VOpc::kBr || op.opc == VOpc::kMv) {
      op.src2 = kNoReg;
    }
  }
  if (op.opc == VOpc::kBr) {
    op.src1 = decReg(14);
    op.dst = kNoReg;
  }
  op.unit = {static_cast<UnitKind>(bitField(w, 26, 2)),
             static_cast<uint8_t>(bitField(w, 28, 1))};
  return op;
}

}  // namespace

std::vector<uint8_t> encodeProgram(std::vector<Packet>& packets,
                                   uint32_t base_addr) {
  // First assign addresses, then encode (kB needs instruction addresses).
  uint32_t addr = base_addr;
  for (Packet& p : packets) {
    validatePacket(p);
    p.addr = addr;
    addr += p.sizeBytes();
  }
  std::vector<uint8_t> out;
  out.reserve((addr - base_addr));
  for (const Packet& p : packets) {
    for (size_t i = 0; i < p.ops.size(); ++i) {
      const bool parallel = i + 1 < p.ops.size();
      const uint32_t w =
          encodeOp(p.ops[i], p.addr + static_cast<uint32_t>(i) * 4, parallel);
      for (int b = 0; b < 4; ++b) {
        out.push_back(static_cast<uint8_t>(w >> (8 * b)));
      }
    }
  }
  return out;
}

std::vector<Packet> decodeProgram(const std::vector<uint8_t>& bytes,
                                  uint32_t base_addr) {
  CABT_CHECK(bytes.size() % 4 == 0, "V6X code size must be a multiple of 4");
  std::vector<Packet> packets;
  Packet current;
  current.addr = base_addr;
  for (size_t off = 0; off < bytes.size(); off += 4) {
    const uint32_t w = static_cast<uint32_t>(bytes[off]) |
                       (static_cast<uint32_t>(bytes[off + 1]) << 8) |
                       (static_cast<uint32_t>(bytes[off + 2]) << 16) |
                       (static_cast<uint32_t>(bytes[off + 3]) << 24);
    bool parallel = false;
    current.ops.push_back(
        decodeOp(w, base_addr + static_cast<uint32_t>(off), &parallel));
    if (!parallel) {
      validatePacket(current);
      packets.push_back(std::move(current));
      current = Packet{};
      current.addr = base_addr + static_cast<uint32_t>(off) + 4;
    }
  }
  CABT_CHECK(current.ops.empty(),
             "trailing instructions with the parallel bit set");
  return packets;
}

}  // namespace cabt::vliw
