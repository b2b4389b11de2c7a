// TRC32 ISA tests: encode/decode round trips for every opcode and format,
// timing-operand extraction, and disassembly.
#include <gtest/gtest.h>

#include "common/error.h"
#include "trc/isa.h"

namespace cabt::trc {
namespace {

Instr make(Opc opc, uint8_t rd = 0, uint8_t ra = 0, uint8_t rb = 0,
           int32_t imm = 0) {
  Instr i;
  i.opc = opc;
  i.rd = rd;
  i.ra = ra;
  i.rb = rb;
  i.imm = imm;
  i.addr = 0x80000000;
  i.size = is16Bit(opc) ? 2 : 4;
  return i;
}

/// Representative operand values for a round-trip check of one opcode.
Instr representative(Opc opc) {
  switch (opInfo(opc).fmt) {
    case Format::kRRR:
    case Format::kAAA:
      return make(opc, 3, 7, 15);
    case Format::kRRI:
    case Format::kALI:
    case Format::kMem:
      return make(opc, 2, 14, 0, -1234);
    case Format::kRI:
      return make(opc, 5, 0, 0, opc == Opc::kMovi ? -32768 : 0xbeef);
    case Format::kAI:
      return make(opc, 9, 0, 0, 0xd000);
    case Format::kMovA:
    case Format::kMovD:
      return make(opc, 4, 11);
    case Format::kBrCC:
      return make(opc, 0, 2, 3, -100);
    case Format::kJ:
      return make(opc, 0, 0, 0, 123456);
    case Format::kJI:
      return make(opc, 0, 11);
    case Format::kNone:
    case Format::k16None:
      return make(opc);
    case Format::k16RR:
      return make(opc, 6, 0, 13);
    case Format::k16RI:
      return make(opc, 7, 0, 0, -64);
    case Format::k16BR:
      return make(opc, 8, 0, 0, 63);
    case Format::k16J:
      return make(opc, 0, 0, 0, -1024);
  }
  CABT_FAIL("unreachable");
}

class OpcodeRoundTrip : public ::testing::TestWithParam<Opc> {};

TEST_P(OpcodeRoundTrip, EncodeDecodeIsIdentity) {
  const Instr in = representative(GetParam());
  const std::vector<uint8_t> bytes = encode(in);
  ASSERT_EQ(bytes.size(), in.size);
  const Instr out = decode(bytes.data(), bytes.size(), in.addr);
  EXPECT_EQ(out.opc, in.opc);
  EXPECT_EQ(out.rd, in.rd);
  EXPECT_EQ(out.ra, in.ra);
  EXPECT_EQ(out.rb, in.rb);
  EXPECT_EQ(out.imm, in.imm);
  EXPECT_EQ(out.size, in.size);
}

TEST_P(OpcodeRoundTrip, WidthBitMatchesEncodingSize) {
  const Instr in = representative(GetParam());
  const std::vector<uint8_t> bytes = encode(in);
  const bool wide = (bytes[0] & 1) != 0;
  EXPECT_EQ(wide, !is16Bit(in.opc));
}

INSTANTIATE_TEST_SUITE_P(AllOpcodes, OpcodeRoundTrip,
                         ::testing::ValuesIn(allOpcodes()),
                         [](const ::testing::TestParamInfo<Opc>& info) {
                           std::string name(opInfo(info.param).mnemonic);
                           return name;
                         });

TEST(Isa, MnemonicLookup) {
  ASSERT_NE(opInfoByMnemonic("add"), nullptr);
  EXPECT_EQ(opInfoByMnemonic("add")->opc, Opc::kAdd);
  EXPECT_EQ(opInfoByMnemonic("jnz16")->opc, Opc::kJnz16);
  EXPECT_EQ(opInfoByMnemonic("nosuch"), nullptr);
}

TEST(Isa, EncodingsAreUniquePerWidth) {
  std::set<std::pair<bool, uint8_t>> seen;
  for (const Opc opc : allOpcodes()) {
    const OpInfo& info = opInfo(opc);
    const auto key = std::make_pair(is16Bit(opc), info.encoding);
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate encoding for " << info.mnemonic;
  }
}

TEST(Isa, ImmediateRangeChecks) {
  EXPECT_THROW(encode(make(Opc::kMovi, 0, 0, 0, 40000)), Error);
  EXPECT_THROW(encode(make(Opc::kMovh, 0, 0, 0, -1)), Error);
  EXPECT_THROW(encode(make(Opc::kMovi16, 0, 0, 0, 100)), Error);
  EXPECT_THROW(encode(make(Opc::kJnz16, 0, 0, 0, 64)), Error);
  EXPECT_NO_THROW(encode(make(Opc::kJnz16, 0, 0, 0, -64)));
}

TEST(Isa, RegisterRangeChecks) {
  EXPECT_THROW(encode(make(Opc::kAdd, 16, 0, 0)), Error);
  EXPECT_THROW(encode(make(Opc::kAdd, 0, 0, 16)), Error);
}

TEST(Isa, DecodeRejectsUnknownOpcodes) {
  // 32-bit pattern with an out-of-range primary opcode (126).
  const uint8_t bad32[] = {0xfd, 0x00, 0x00, 0x00};
  EXPECT_THROW(decode(bad32, 4, 0), Error);
  const uint8_t bad16[] = {0x1e, 0x00};  // 16-bit opcode 15: unused
  EXPECT_THROW(decode(bad16, 2, 0), Error);
}

// decode() looks opcodes up in two tables built from the opcode table;
// every value of the 4-bit narrow and 7-bit wide opcode fields must
// decode to the one opcode of that width and OpInfo::encoding, or throw
// when there is none.
TEST(Isa, DecodeTableMatchesOpcodeTable) {
  for (const bool narrow : {true, false}) {
    const uint32_t values = narrow ? 16 : 128;
    for (uint32_t enc = 0; enc < values; ++enc) {
      SCOPED_TRACE((narrow ? "narrow " : "wide ") + std::to_string(enc));
      const OpInfo* want = nullptr;
      for (const Opc opc : allOpcodes()) {
        if (is16Bit(opc) == narrow && opInfo(opc).encoding == enc) {
          want = &opInfo(opc);
        }
      }
      // The opcode field sits above the width bit; every operand is 0.
      const uint32_t word = narrow ? enc << 1 : (enc << 1) | 1u;
      const uint8_t bytes[] = {static_cast<uint8_t>(word),
                               static_cast<uint8_t>(word >> 8), 0, 0};
      if (want == nullptr) {
        EXPECT_THROW(decode(bytes, sizeof bytes, 0), Error);
        continue;
      }
      const Instr in = decode(bytes, sizeof bytes, 0);
      EXPECT_EQ(in.opc, want->opc);
      EXPECT_EQ(in.size, narrow ? 2 : 4);
    }
  }
}

TEST(Isa, DecodeRejectsTruncatedInput) {
  const Instr in = make(Opc::kAdd, 1, 2, 3);
  const std::vector<uint8_t> bytes = encode(in);
  EXPECT_THROW(decode(bytes.data(), 2, 0), Error);
  EXPECT_THROW(decode(bytes.data(), 1, 0), Error);
}

TEST(Isa, BranchTargetArithmetic) {
  Instr j = make(Opc::kJ, 0, 0, 0, -2);
  j.addr = 0x80000100;
  EXPECT_EQ(j.branchTarget(), 0x800000fcu);
  Instr b16 = make(Opc::kJnz16, 3, 0, 0, 5);
  b16.addr = 0x80000010;
  EXPECT_EQ(b16.branchTarget(), 0x8000001au);
}

TEST(Isa, TimedOpClassification) {
  EXPECT_EQ(make(Opc::kAdd).cls(), arch::OpClass::kIpAlu);
  EXPECT_EQ(make(Opc::kMul).cls(), arch::OpClass::kMul);
  EXPECT_EQ(make(Opc::kLdw).cls(), arch::OpClass::kLoad);
  EXPECT_EQ(make(Opc::kStw).cls(), arch::OpClass::kStore);
  EXPECT_EQ(make(Opc::kLea).cls(), arch::OpClass::kLsAlu);
  EXPECT_EQ(make(Opc::kJl).cls(), arch::OpClass::kCall);
  EXPECT_EQ(make(Opc::kRet16).cls(), arch::OpClass::kBranchInd);
  EXPECT_TRUE(make(Opc::kJ).isControlTransfer());
  EXPECT_FALSE(make(Opc::kNop).isControlTransfer());
}

TEST(Isa, TimedOpOperands) {
  // add d3, d7, d15: dst D3, srcs D7, D15.
  const arch::TimedOp t = make(Opc::kAdd, 3, 7, 15).timedOp();
  EXPECT_EQ(t.dst, 3);
  EXPECT_EQ(t.src1, 7);
  EXPECT_EQ(t.src2, 15);
  // ldw d2, [a14]: dst D2, src A14 (unified id 30).
  const arch::TimedOp l = make(Opc::kLdw, 2, 14).timedOp();
  EXPECT_EQ(l.dst, 2);
  EXPECT_EQ(l.src1, 30);
  // stw d2, [a14]: no dst, srcs D2 and A14.
  const arch::TimedOp s = make(Opc::kStw, 2, 14).timedOp();
  EXPECT_EQ(s.dst, arch::TimedOp::kNoReg);
  EXPECT_EQ(s.src1, 2);
  EXPECT_EQ(s.src2, 30);
  // jl writes the link register A11 (unified id 27).
  const arch::TimedOp c = make(Opc::kJl).timedOp();
  EXPECT_EQ(c.dst, 27);
  // add16 d6, d13 also reads d6.
  const arch::TimedOp a16 = make(Opc::kAdd16, 6, 0, 13).timedOp();
  EXPECT_EQ(a16.dst, 6);
  EXPECT_EQ(a16.src1, 13);
  EXPECT_EQ(a16.src2, 6);
  // mov16 d6, d13 does not read d6.
  const arch::TimedOp m16 = make(Opc::kMov16, 6, 0, 13).timedOp();
  EXPECT_EQ(m16.src2, arch::TimedOp::kNoReg);
}

TEST(Isa, DisassembleFormats) {
  EXPECT_EQ(disassemble(make(Opc::kAdd, 1, 2, 3)), "add d1, d2, d3");
  EXPECT_EQ(disassemble(make(Opc::kLdw, 2, 14, 0, 8)), "ldw d2, [a14]8");
  EXPECT_EQ(disassemble(make(Opc::kSta, 3, 4, 0, -4)), "sta a3, [a4]-4");
  EXPECT_EQ(disassemble(make(Opc::kMovha, 9, 0, 0, 0xd000)),
            "movha a9, 53248");
  EXPECT_EQ(disassemble(make(Opc::kHalt)), "halt");
  Instr j = make(Opc::kJ16, 0, 0, 0, 4);
  EXPECT_EQ(disassemble(j), "j16 0x80000008");
}

}  // namespace
}  // namespace cabt::trc
