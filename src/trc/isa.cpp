#include "trc/isa.h"

#include <array>
#include <map>

#include "common/bits.h"
#include "common/error.h"
#include "common/strutil.h"

namespace cabt::trc {
namespace {

using arch::OpClass;

/// Builds the opcode table. 32-bit primary opcodes and 16-bit opcodes are
/// numbered independently, starting at 1 (0 = invalid encoding).
std::array<OpInfo, static_cast<size_t>(Opc::kOpcCount)> buildTable() {
  std::array<OpInfo, static_cast<size_t>(Opc::kOpcCount)> table{};
  uint8_t next32 = 1;
  uint8_t next16 = 1;
  const auto add = [&](Opc opc, std::string_view mnemonic, Format fmt,
                       OpClass cls) {
    const bool narrow = fmt == Format::k16None || fmt == Format::k16RR ||
                        fmt == Format::k16RI || fmt == Format::k16BR ||
                        fmt == Format::k16J;
    OpInfo info;
    info.opc = opc;
    info.mnemonic = mnemonic;
    info.fmt = fmt;
    info.cls = cls;
    info.encoding = narrow ? next16++ : next32++;
    table[static_cast<size_t>(opc)] = info;
  };

  add(Opc::kAdd, "add", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kSub, "sub", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kAnd, "and", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kOr, "or", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kXor, "xor", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kShl, "shl", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kShr, "shr", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kSar, "sar", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kMul, "mul", Format::kRRR, OpClass::kMul);
  add(Opc::kEq, "eq", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kNe, "ne", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kLt, "lt", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kGe, "ge", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kLtu, "ltu", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kGeu, "geu", Format::kRRR, OpClass::kIpAlu);
  add(Opc::kAddi, "addi", Format::kRRI, OpClass::kIpAlu);
  add(Opc::kMovi, "movi", Format::kRI, OpClass::kIpAlu);
  add(Opc::kMovh, "movh", Format::kRI, OpClass::kIpAlu);
  add(Opc::kMova, "mova", Format::kMovA, OpClass::kLsAlu);
  add(Opc::kMovd, "movd", Format::kMovD, OpClass::kLsAlu);
  add(Opc::kLea, "lea", Format::kALI, OpClass::kLsAlu);
  add(Opc::kMovha, "movha", Format::kAI, OpClass::kLsAlu);
  add(Opc::kAdda, "adda", Format::kAAA, OpClass::kLsAlu);
  add(Opc::kSuba, "suba", Format::kAAA, OpClass::kLsAlu);
  add(Opc::kLdw, "ldw", Format::kMem, OpClass::kLoad);
  add(Opc::kLdh, "ldh", Format::kMem, OpClass::kLoad);
  add(Opc::kLdhu, "ldhu", Format::kMem, OpClass::kLoad);
  add(Opc::kLdb, "ldb", Format::kMem, OpClass::kLoad);
  add(Opc::kLdbu, "ldbu", Format::kMem, OpClass::kLoad);
  add(Opc::kLda, "lda", Format::kMem, OpClass::kLoad);
  add(Opc::kStw, "stw", Format::kMem, OpClass::kStore);
  add(Opc::kSth, "sth", Format::kMem, OpClass::kStore);
  add(Opc::kStb, "stb", Format::kMem, OpClass::kStore);
  add(Opc::kSta, "sta", Format::kMem, OpClass::kStore);
  add(Opc::kJ, "j", Format::kJ, OpClass::kBranchUncond);
  add(Opc::kJl, "jl", Format::kJ, OpClass::kCall);
  add(Opc::kJi, "ji", Format::kJI, OpClass::kBranchInd);
  add(Opc::kJeq, "jeq", Format::kBrCC, OpClass::kBranchCond);
  add(Opc::kJne, "jne", Format::kBrCC, OpClass::kBranchCond);
  add(Opc::kJlt, "jlt", Format::kBrCC, OpClass::kBranchCond);
  add(Opc::kJge, "jge", Format::kBrCC, OpClass::kBranchCond);
  add(Opc::kJltu, "jltu", Format::kBrCC, OpClass::kBranchCond);
  add(Opc::kJgeu, "jgeu", Format::kBrCC, OpClass::kBranchCond);
  add(Opc::kNop, "nop", Format::kNone, OpClass::kNop);
  add(Opc::kHalt, "halt", Format::kNone, OpClass::kHalt);
  add(Opc::kBkpt, "bkpt", Format::kNone, OpClass::kNop);
  add(Opc::kNop16, "nop16", Format::k16None, OpClass::kNop);
  add(Opc::kMov16, "mov16", Format::k16RR, OpClass::kIpAlu);
  add(Opc::kAdd16, "add16", Format::k16RR, OpClass::kIpAlu);
  add(Opc::kSub16, "sub16", Format::k16RR, OpClass::kIpAlu);
  add(Opc::kMovi16, "movi16", Format::k16RI, OpClass::kIpAlu);
  add(Opc::kAddi16, "addi16", Format::k16RI, OpClass::kIpAlu);
  add(Opc::kJnz16, "jnz16", Format::k16BR, OpClass::kBranchCond);
  add(Opc::kJz16, "jz16", Format::k16BR, OpClass::kBranchCond);
  add(Opc::kJ16, "j16", Format::k16J, OpClass::kBranchUncond);
  add(Opc::kRet16, "ret16", Format::k16None, OpClass::kBranchInd);
  return table;
}

const std::array<OpInfo, static_cast<size_t>(Opc::kOpcCount)>& table() {
  static const auto t = buildTable();
  return t;
}

}  // namespace

const OpInfo& opInfo(Opc opc) {
  CABT_ASSERT(opc != Opc::kInvalid && opc != Opc::kOpcCount,
              "opInfo on invalid opcode");
  return table()[static_cast<size_t>(opc)];
}

const OpInfo* opInfoByMnemonic(std::string_view mnemonic) {
  static const auto* by_name = [] {
    auto* m = new std::map<std::string, const OpInfo*, std::less<>>();
    for (const OpInfo& info : table()) {
      if (info.opc != Opc::kInvalid) {
        (*m)[std::string(info.mnemonic)] = &table()[static_cast<size_t>(
            info.opc)];
      }
    }
    return m;
  }();
  const auto it = by_name->find(mnemonic);
  return it == by_name->end() ? nullptr : it->second;
}

const std::vector<Opc>& allOpcodes() {
  static const auto* opcodes = [] {
    auto* v = new std::vector<Opc>();
    for (const OpInfo& info : table()) {
      if (info.opc != Opc::kInvalid) {
        v->push_back(info.opc);
      }
    }
    return v;
  }();
  return *opcodes;
}

bool is16Bit(Opc opc) {
  switch (opInfo(opc).fmt) {
    case Format::k16None:
    case Format::k16RR:
    case Format::k16RI:
    case Format::k16BR:
    case Format::k16J:
      return true;
    default:
      return false;
  }
}

arch::TimedOp Instr::timedOp() const {
  arch::TimedOp t;
  t.cls = cls();
  switch (info().fmt) {
    case Format::kRRR:
      t.dst = unifiedD(rd);
      t.src1 = unifiedD(ra);
      t.src2 = unifiedD(rb);
      break;
    case Format::kRRI:
      t.dst = unifiedD(rd);
      t.src1 = unifiedD(ra);
      break;
    case Format::kRI:
      t.dst = unifiedD(rd);
      break;
    case Format::kAI:
      t.dst = unifiedA(rd);
      break;
    case Format::kALI:
      t.dst = unifiedA(rd);
      t.src1 = unifiedA(ra);
      break;
    case Format::kAAA:
      t.dst = unifiedA(rd);
      t.src1 = unifiedA(ra);
      t.src2 = unifiedA(rb);
      break;
    case Format::kMovA:
      t.dst = unifiedA(rd);
      t.src1 = unifiedD(ra);
      break;
    case Format::kMovD:
      t.dst = unifiedD(rd);
      t.src1 = unifiedA(ra);
      break;
    case Format::kMem:
      if (cls() == OpClass::kStore) {
        t.src1 = opc == Opc::kSta ? unifiedA(rd) : unifiedD(rd);
        t.src2 = unifiedA(ra);
      } else {
        t.dst = opc == Opc::kLda ? unifiedA(rd) : unifiedD(rd);
        t.src1 = unifiedA(ra);
      }
      break;
    case Format::kBrCC:
      t.src1 = unifiedD(ra);
      t.src2 = unifiedD(rb);
      break;
    case Format::kJ:
      if (opc == Opc::kJl) {
        t.dst = unifiedA(kLinkRegister);
      }
      break;
    case Format::kJI:
      t.src1 = unifiedA(ra);
      break;
    case Format::kNone:
    case Format::k16None:
      if (opc == Opc::kRet16) {
        t.src1 = unifiedA(kLinkRegister);
      }
      break;
    case Format::k16RR:
      t.dst = unifiedD(rd);
      t.src1 = unifiedD(rb);
      if (opc != Opc::kMov16) {
        t.src2 = unifiedD(rd);  // add16/sub16 also read the destination
      }
      break;
    case Format::k16RI:
      t.dst = unifiedD(rd);
      if (opc == Opc::kAddi16) {
        t.src1 = unifiedD(rd);
      }
      break;
    case Format::k16BR:
      t.src1 = unifiedD(rd);
      break;
    case Format::k16J:
      break;
  }
  return t;
}

namespace {

void checkReg(uint8_t r, std::string_view what) {
  CABT_CHECK(r < 16, "register field " << what << " out of range: " << int{r});
}

}  // namespace

std::vector<uint8_t> encode(const Instr& instr) {
  const OpInfo& info = instr.info();
  if (is16Bit(instr.opc)) {
    uint32_t h = 0;  // bit 0 = 0 marks a 16-bit encoding
    h = insertField(h, 1, 4, info.encoding);
    switch (info.fmt) {
      case Format::k16None:
        break;
      case Format::k16RR:
        checkReg(instr.rd, "rd");
        checkReg(instr.rb, "rb");
        h = insertField(h, 5, 4, instr.rd);
        h = insertField(h, 9, 4, instr.rb);
        break;
      case Format::k16RI:
        checkReg(instr.rd, "rd");
        CABT_CHECK(fitsSigned(instr.imm, 7),
                   "immediate " << instr.imm << " does not fit simm7");
        h = insertField(h, 5, 4, instr.rd);
        h = insertField(h, 9, 7, static_cast<uint32_t>(instr.imm));
        break;
      case Format::k16BR:
        checkReg(instr.rd, "rd");
        CABT_CHECK(fitsSigned(instr.imm, 7),
                   "branch displacement " << instr.imm
                                          << " does not fit disp7");
        h = insertField(h, 5, 4, instr.rd);
        h = insertField(h, 9, 7, static_cast<uint32_t>(instr.imm));
        break;
      case Format::k16J:
        CABT_CHECK(fitsSigned(instr.imm, 11),
                   "branch displacement " << instr.imm
                                          << " does not fit disp11");
        h = insertField(h, 5, 11, static_cast<uint32_t>(instr.imm));
        break;
      default:
        CABT_FAIL("format mismatch for 16-bit opcode");
    }
    return {static_cast<uint8_t>(h), static_cast<uint8_t>(h >> 8)};
  }

  uint32_t w = 1;  // bit 0 = 1 marks a 32-bit encoding
  w = insertField(w, 1, 7, info.encoding);
  const auto imm16 = [&](bool is_signed) {
    if (is_signed) {
      CABT_CHECK(fitsSigned(instr.imm, 16),
                 "immediate " << instr.imm << " does not fit simm16 in "
                              << info.mnemonic);
    } else {
      CABT_CHECK(instr.imm >= 0 && fitsUnsigned(
                     static_cast<uint64_t>(instr.imm), 16),
                 "immediate " << instr.imm << " does not fit uimm16 in "
                              << info.mnemonic);
    }
    w = insertField(w, 16, 16, static_cast<uint32_t>(instr.imm));
  };
  switch (info.fmt) {
    case Format::kRRR:
    case Format::kAAA:
      checkReg(instr.rd, "rd");
      checkReg(instr.ra, "ra");
      checkReg(instr.rb, "rb");
      w = insertField(w, 8, 4, instr.rd);
      w = insertField(w, 12, 4, instr.ra);
      w = insertField(w, 16, 4, instr.rb);
      break;
    case Format::kMovA:
    case Format::kMovD:
      checkReg(instr.rd, "rd");
      checkReg(instr.ra, "ra");
      w = insertField(w, 8, 4, instr.rd);
      w = insertField(w, 12, 4, instr.ra);
      break;
    case Format::kRRI:
    case Format::kALI:
    case Format::kMem:
      checkReg(instr.rd, "rd");
      checkReg(instr.ra, "ra");
      w = insertField(w, 8, 4, instr.rd);
      w = insertField(w, 12, 4, instr.ra);
      imm16(true);
      break;
    case Format::kRI:
      checkReg(instr.rd, "rd");
      w = insertField(w, 8, 4, instr.rd);
      imm16(instr.opc == Opc::kMovi);
      break;
    case Format::kAI:
      checkReg(instr.rd, "rd");
      w = insertField(w, 8, 4, instr.rd);
      imm16(false);
      break;
    case Format::kBrCC:
      checkReg(instr.ra, "ra");
      checkReg(instr.rb, "rb");
      w = insertField(w, 8, 4, instr.ra);
      w = insertField(w, 12, 4, instr.rb);
      CABT_CHECK(fitsSigned(instr.imm, 16),
                 "branch displacement " << instr.imm << " does not fit disp16");
      w = insertField(w, 16, 16, static_cast<uint32_t>(instr.imm));
      break;
    case Format::kJ:
      CABT_CHECK(fitsSigned(instr.imm, 24),
                 "branch displacement " << instr.imm << " does not fit disp24");
      w = insertField(w, 8, 24, static_cast<uint32_t>(instr.imm));
      break;
    case Format::kJI:
      checkReg(instr.ra, "ra");
      w = insertField(w, 8, 4, instr.ra);
      break;
    case Format::kNone:
      break;
    default:
      CABT_FAIL("format mismatch for 32-bit opcode");
  }
  return {static_cast<uint8_t>(w), static_cast<uint8_t>(w >> 8),
          static_cast<uint8_t>(w >> 16), static_cast<uint8_t>(w >> 24)};
}

namespace {

/// Reverse lookup, encoding value -> opcode, one table per width (the
/// 16-bit opcode field is 4 bits wide, the 32-bit one 7 bits), built
/// once from the opcode table. nullptr marks an unknown encoding.
struct DecodeTables {
  std::array<const OpInfo*, 16> narrow{};
  std::array<const OpInfo*, 128> wide{};
};

const DecodeTables& decodeTables() {
  static const DecodeTables tables = [] {
    DecodeTables t;
    for (const Opc opc : allOpcodes()) {
      const OpInfo& info = opInfo(opc);
      if (is16Bit(opc)) {
        t.narrow.at(info.encoding) = &info;
      } else {
        t.wide.at(info.encoding) = &info;
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

Instr decode(const uint8_t* bytes, size_t available, uint32_t addr) {
  CABT_CHECK(available >= 2, "truncated instruction at " << hex32(addr));
  const uint32_t h0 = static_cast<uint32_t>(bytes[0]) |
                      (static_cast<uint32_t>(bytes[1]) << 8);
  Instr instr;
  instr.addr = addr;
  if ((h0 & 1u) == 0) {
    instr.size = 2;
    const OpInfo* info = decodeTables().narrow[bitField(h0, 1, 4)];
    CABT_CHECK(info != nullptr, "unknown 16-bit opcode at " << hex32(addr));
    instr.opc = info->opc;
    switch (info->fmt) {
      case Format::k16None:
        break;
      case Format::k16RR:
        instr.rd = static_cast<uint8_t>(bitField(h0, 5, 4));
        instr.rb = static_cast<uint8_t>(bitField(h0, 9, 4));
        break;
      case Format::k16RI:
      case Format::k16BR:
        instr.rd = static_cast<uint8_t>(bitField(h0, 5, 4));
        instr.imm = signExtend(bitField(h0, 9, 7), 7);
        break;
      case Format::k16J:
        instr.imm = signExtend(bitField(h0, 5, 11), 11);
        break;
      default:
        CABT_FAIL("format mismatch in 16-bit decode");
    }
    return instr;
  }

  CABT_CHECK(available >= 4, "truncated 32-bit instruction at " << hex32(addr));
  const uint32_t w = h0 | (static_cast<uint32_t>(bytes[2]) << 16) |
                     (static_cast<uint32_t>(bytes[3]) << 24);
  instr.size = 4;
  const OpInfo* info = decodeTables().wide[bitField(w, 1, 7)];
  CABT_CHECK(info != nullptr, "unknown 32-bit opcode at " << hex32(addr));
  instr.opc = info->opc;
  switch (info->fmt) {
    case Format::kRRR:
    case Format::kAAA:
      instr.rd = static_cast<uint8_t>(bitField(w, 8, 4));
      instr.ra = static_cast<uint8_t>(bitField(w, 12, 4));
      instr.rb = static_cast<uint8_t>(bitField(w, 16, 4));
      break;
    case Format::kMovA:
    case Format::kMovD:
      instr.rd = static_cast<uint8_t>(bitField(w, 8, 4));
      instr.ra = static_cast<uint8_t>(bitField(w, 12, 4));
      break;
    case Format::kRRI:
    case Format::kALI:
    case Format::kMem:
      instr.rd = static_cast<uint8_t>(bitField(w, 8, 4));
      instr.ra = static_cast<uint8_t>(bitField(w, 12, 4));
      instr.imm = signExtend(bitField(w, 16, 16), 16);
      break;
    case Format::kRI:
      instr.rd = static_cast<uint8_t>(bitField(w, 8, 4));
      instr.imm = instr.opc == Opc::kMovi
                      ? signExtend(bitField(w, 16, 16), 16)
                      : static_cast<int32_t>(bitField(w, 16, 16));
      break;
    case Format::kAI:
      instr.rd = static_cast<uint8_t>(bitField(w, 8, 4));
      instr.imm = static_cast<int32_t>(bitField(w, 16, 16));
      break;
    case Format::kBrCC:
      instr.ra = static_cast<uint8_t>(bitField(w, 8, 4));
      instr.rb = static_cast<uint8_t>(bitField(w, 12, 4));
      instr.imm = signExtend(bitField(w, 16, 16), 16);
      break;
    case Format::kJ:
      instr.imm = signExtend(bitField(w, 8, 24), 24);
      break;
    case Format::kJI:
      instr.ra = static_cast<uint8_t>(bitField(w, 8, 4));
      break;
    case Format::kNone:
      break;
    default:
      CABT_FAIL("format mismatch in 32-bit decode");
  }
  return instr;
}

std::string disassemble(const Instr& instr) {
  const OpInfo& info = instr.info();
  std::string out(info.mnemonic);
  const auto reg = [](char bank, int n) {
    return std::string(1, bank) + std::to_string(n);
  };
  const auto target = [&instr] { return hex32(instr.branchTarget()); };
  switch (info.fmt) {
    case Format::kRRR:
      out += " " + reg('d', instr.rd) + ", " + reg('d', instr.ra) + ", " +
             reg('d', instr.rb);
      break;
    case Format::kAAA:
      out += " " + reg('a', instr.rd) + ", " + reg('a', instr.ra) + ", " +
             reg('a', instr.rb);
      break;
    case Format::kRRI:
      out += " " + reg('d', instr.rd) + ", " + reg('d', instr.ra) + ", " +
             std::to_string(instr.imm);
      break;
    case Format::kRI:
      out += " " + reg('d', instr.rd) + ", " + std::to_string(instr.imm);
      break;
    case Format::kAI:
      out += " " + reg('a', instr.rd) + ", " + std::to_string(instr.imm);
      break;
    case Format::kALI:
      out += " " + reg('a', instr.rd) + ", " + reg('a', instr.ra) + ", " +
             std::to_string(instr.imm);
      break;
    case Format::kMovA:
      out += " " + reg('a', instr.rd) + ", " + reg('d', instr.ra);
      break;
    case Format::kMovD:
      out += " " + reg('d', instr.rd) + ", " + reg('a', instr.ra);
      break;
    case Format::kMem: {
      const char bank =
          instr.opc == Opc::kLda || instr.opc == Opc::kSta ? 'a' : 'd';
      out += " " + reg(bank, instr.rd) + ", [" + reg('a', instr.ra) + "]" +
             std::to_string(instr.imm);
      break;
    }
    case Format::kBrCC:
      out += " " + reg('d', instr.ra) + ", " + reg('d', instr.rb) + ", " +
             target();
      break;
    case Format::kJ:
    case Format::k16J:
      out += " " + target();
      break;
    case Format::kJI:
      out += " " + reg('a', instr.ra);
      break;
    case Format::kNone:
    case Format::k16None:
      break;
    case Format::k16RR:
      out += " " + reg('d', instr.rd) + ", " + reg('d', instr.rb);
      break;
    case Format::k16RI:
      out += " " + reg('d', instr.rd) + ", " + std::to_string(instr.imm);
      break;
    case Format::k16BR:
      out += " " + reg('d', instr.rd) + ", " + target();
      break;
  }
  return out;
}

}  // namespace cabt::trc
