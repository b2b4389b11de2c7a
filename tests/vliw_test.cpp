// V6X ISA and simulator tests: packet encoding round trips, validation
// rules, delay-slot timing, predication, device stalls, the batched clock
// reports and NOP tails, and stops.
#include <gtest/gtest.h>

#include "common/error.h"
#include "vliw/isa.h"
#include "vliw/sim.h"

namespace cabt::vliw {
namespace {

MachineOp op(VOpc opc, Unit unit, uint8_t dst, uint8_t s1 = kNoReg,
             uint8_t s2 = kNoReg, int32_t imm = 0) {
  MachineOp m;
  m.opc = opc;
  m.unit = unit;
  m.dst = dst;
  m.src1 = s1;
  m.src2 = s2;
  m.imm = imm;
  return m;
}

constexpr Unit L1{UnitKind::kL, 0};
constexpr Unit L2{UnitKind::kL, 1};
constexpr Unit S1{UnitKind::kS, 0};
constexpr Unit S2{UnitKind::kS, 1};
constexpr Unit M1{UnitKind::kM, 0};
constexpr Unit D1{UnitKind::kD, 0};
constexpr Unit D2{UnitKind::kD, 1};

MachineOp mvk(uint8_t dst, int32_t imm, Unit u = S1) {
  return op(VOpc::kMvk, u, dst, kNoReg, kNoReg, imm);
}
MachineOp nop(int n) { return op(VOpc::kNop, {}, kNoReg, kNoReg, kNoReg, n); }
MachineOp halt() { return op(VOpc::kHalt, S1, kNoReg); }

constexpr uint32_t kBase = 0x100000;

/// Builds an image whose .text at kBase holds `code` verbatim.
elf::Object rawImage(std::vector<uint8_t> code) {
  elf::Object obj;
  obj.machine = elf::Machine::kV6x;
  obj.entry = kBase;
  elf::Section text;
  text.name = ".text";
  text.addr = kBase;
  text.executable = true;
  text.data = std::move(code);
  obj.sections.push_back(std::move(text));
  return obj;
}

/// Builds an image at kBase from packets.
elf::Object makeImage(std::vector<Packet> packets) {
  return rawImage(encodeProgram(packets, kBase));
}

/// Encodes every op as its own packet at kBase; tests then patch the
/// words into shapes encodeProgram refuses to emit.
std::vector<uint8_t> encodeSingles(const std::vector<MachineOp>& ops) {
  std::vector<Packet> packets;
  for (const MachineOp& m : ops) {
    packets.push_back({0, {m}});
  }
  return encodeProgram(packets, kBase);
}

uint32_t word(const std::vector<uint8_t>& code, size_t i) {
  return static_cast<uint32_t>(code[4 * i]) |
         (static_cast<uint32_t>(code[4 * i + 1]) << 8) |
         (static_cast<uint32_t>(code[4 * i + 2]) << 16) |
         (static_cast<uint32_t>(code[4 * i + 3]) << 24);
}

void setWord(std::vector<uint8_t>& code, size_t i, uint32_t w) {
  for (size_t b = 0; b < 4; ++b) {
    code[4 * i + b] = static_cast<uint8_t>(w >> (8 * b));
  }
}

/// Sets the p-bit of word i: it now chains into the next word's packet.
void chainWord(std::vector<uint8_t>& code, size_t i) {
  setWord(code, i, word(code, i) | 1u);
}

/// Expects loadProgram to reject `image` with a message containing `what`.
void expectLoadError(const elf::Object& image, const std::string& what) {
  V6xSim sim;
  try {
    sim.loadProgram(image);
    ADD_FAILURE() << "malformed image loaded; expected \"" << what << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

/// Expects run() to throw a cabt::Error whose message contains `what`.
void expectRunError(std::vector<Packet> packets, const std::string& what) {
  V6xSim sim;
  sim.loadProgram(makeImage(std::move(packets)));
  try {
    sim.run(1000);
    ADD_FAILURE() << "run finished; expected \"" << what << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

V6xSim runPackets(std::vector<Packet> packets) {
  V6xSim sim;
  sim.loadProgram(makeImage(std::move(packets)));
  EXPECT_EQ(sim.run(100000), RunState::kHalted);
  return sim;
}

/// Expects two machines to be indistinguishable: every register, the pc,
/// the run state and every statistic.
void expectSameMachine(const V6xSim& want, const V6xSim& got,
                       const std::string& where) {
  for (uint8_t r = 0; r < 2 * kRegsPerFile; ++r) {
    EXPECT_EQ(got.reg(r), want.reg(r)) << regName(r) << " " << where;
  }
  EXPECT_EQ(got.pc(), want.pc()) << where;
  EXPECT_EQ(got.state(), want.state()) << where;
  const SimStats& a = want.stats();
  const SimStats& b = got.stats();
  EXPECT_EQ(b.cycles, a.cycles) << where;
  EXPECT_EQ(b.issue_cycles, a.issue_cycles) << where;
  EXPECT_EQ(b.packets, a.packets) << where;
  EXPECT_EQ(b.ops, a.ops) << where;
  EXPECT_EQ(b.nop_cycles, a.nop_cycles) << where;
  EXPECT_EQ(b.stall_cycles, a.stall_cycles) << where;
  EXPECT_EQ(b.branches_taken, a.branches_taken) << where;
}

constexpr uint32_t kIoBase = 0xfe000000;

/// Device whose every access is refused for `stall_cycles` cycles from
/// its first attempt, then completes: a wait that ends at a cycle the
/// device can name, like the sync device's. It keeps time by its
/// machine's cycle count, which includes the cycle being attempted.
class StallingHandler : public IoHandler {
 public:
  StallingHandler(const V6xSim* sim, unsigned stall_cycles)
      : IoHandler(kIoBase, 0x10), sim_(sim), stall_cycles_(stall_cycles) {}
  uint64_t refusedCycles(uint32_t, bool) override {
    const uint64_t now = sim_->stats().cycles;
    if (!waiting_) {
      waiting_ = true;
      ready_at_ = now + stall_cycles_;
    }
    return ready_at_ > now ? ready_at_ - now : 0;
  }
  uint32_t load(uint32_t, unsigned) override {
    waiting_ = false;
    ++loads_;
    return 0xabcd;
  }
  void store(uint32_t, uint32_t value, unsigned) override {
    waiting_ = false;
    last_ = value;
  }

  unsigned loads_ = 0;
  uint32_t last_ = 0;

 private:
  const V6xSim* sim_;
  unsigned stall_cycles_;
  bool waiting_ = false;
  uint64_t ready_at_ = 0;
};

/// A machine loaded with `image` and, when `stall_cycles` > 0, its own
/// StallingHandler at kIoBase.
struct Rig {
  Rig(const elf::Object& image, unsigned stall_cycles)
      : handler(&sim, stall_cycles) {
    sim.loadProgram(image);
    if (stall_cycles != 0) {
      sim.addIoHandler(&handler);
    }
  }
  V6xSim sim;
  StallingHandler handler;
};

/// Runs `packets` in budgets of one cycle and, separately, stops once at
/// every cycle budget `b` and resumes to halt. Each budget stop must
/// equal the cycle-by-cycle machine at the same cycle, and every resumed
/// run the uninterrupted one: NOP tails and device stalls batch without
/// a visible trace. `stall_cycles` > 0 gives every machine a device at
/// kIoBase that refuses each access for that many cycles.
void expectBudgetStopsInvisible(const std::vector<Packet>& packets,
                                unsigned stall_cycles = 0) {
  const elf::Object image = makeImage(packets);
  Rig whole(image, stall_cycles);
  ASSERT_EQ(whole.sim.run(100000), RunState::kHalted);
  const uint64_t total = whole.sim.stats().cycles;
  Rig single(image, stall_cycles);
  for (uint64_t b = 1; b < total; ++b) {
    ASSERT_EQ(single.sim.run(1), RunState::kMaxCycles);
    Rig stopped(image, stall_cycles);
    ASSERT_EQ(stopped.sim.run(b), RunState::kMaxCycles);
    expectSameMachine(single.sim, stopped.sim,
                      "at budget " + std::to_string(b));
    ASSERT_EQ(stopped.sim.run(100000), RunState::kHalted);
    expectSameMachine(whole.sim, stopped.sim,
                      "resumed from " + std::to_string(b));
    EXPECT_EQ(stopped.handler.loads_, whole.handler.loads_);
    EXPECT_EQ(stopped.handler.last_, whole.handler.last_);
  }
  ASSERT_EQ(single.sim.run(1), RunState::kHalted);
  expectSameMachine(whole.sim, single.sim, "cycle by cycle");
}

// ---- encoding -----------------------------------------------------------

TEST(V6xEncoding, RoundTripRegisterFormat) {
  std::vector<Packet> packets;
  packets.push_back({0, {op(VOpc::kAdd, L1, regA(3), regA(4), regB(17)),
                         op(VOpc::kMpy, M1, regB(2), regA(1), regA(2))}});
  packets.push_back({0, {op(VOpc::kLdw, D2, regA(5), regB(16), kNoReg, -8)}});
  packets.push_back({0, {op(VOpc::kStb, D1, regB(7), regA(9), kNoReg, 31)}});
  packets.push_back({0, {halt()}});
  const auto bytes = encodeProgram(packets, 0x1000);
  const auto back = decodeProgram(bytes, 0x1000);
  ASSERT_EQ(back.size(), packets.size());
  for (size_t p = 0; p < packets.size(); ++p) {
    ASSERT_EQ(back[p].ops.size(), packets[p].ops.size()) << "packet " << p;
    EXPECT_EQ(back[p].addr, packets[p].addr);
    for (size_t i = 0; i < packets[p].ops.size(); ++i) {
      const MachineOp& a = packets[p].ops[i];
      const MachineOp& b = back[p].ops[i];
      EXPECT_EQ(a.opc, b.opc);
      EXPECT_EQ(a.unit, b.unit);
      EXPECT_EQ(a.dst, b.dst);
      EXPECT_EQ(a.imm, b.imm);
      EXPECT_EQ(a.pred, b.pred);
    }
  }
}

TEST(V6xEncoding, RoundTripImmediateAndPredication) {
  MachineOp m = mvk(regB(12), -30000, S2);
  m.pred = {PredReg::kA1, true};
  MachineOp k = op(VOpc::kMvkh, S1, regA(30), kNoReg, kNoReg, 0xd000);
  MachineOp a = op(VOpc::kAddk, S2, regB(1), kNoReg, kNoReg, 0x7fff);
  a.pred = {PredReg::kB0, false};
  std::vector<Packet> packets{{0, {m}}, {0, {k, a}}, {0, {halt()}}};
  const auto back = decodeProgram(encodeProgram(packets, 0x2000), 0x2000);
  EXPECT_EQ(back[0].ops[0].imm, -30000);
  EXPECT_EQ(back[0].ops[0].pred, (Pred{PredReg::kA1, true}));
  EXPECT_EQ(back[1].ops[0].imm, 0xd000);
  EXPECT_EQ(back[1].ops[1].pred, (Pred{PredReg::kB0, false}));
}

TEST(V6xEncoding, BranchTargetsAreAbsoluteAfterDecode) {
  std::vector<Packet> packets;
  packets.push_back({0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg, 0x3010)}});
  packets.push_back({0, {nop(5)}});
  packets.push_back({0, {halt()}});
  packets.push_back({0, {mvk(regA(0), 1)}});  // 0x300c
  packets.push_back({0, {halt()}});           // 0x3010
  const auto back = decodeProgram(encodeProgram(packets, 0x3000), 0x3000);
  EXPECT_EQ(back[0].ops[0].imm, 0x3010);
}

TEST(V6xEncoding, MemOffsetScalingAndRange) {
  // Word offsets scale by 4: +-124 encodable.
  std::vector<Packet> ok{{0, {op(VOpc::kLdw, D1, regA(1), regA(2), kNoReg,
                                 124)}}};
  EXPECT_NO_THROW(encodeProgram(ok, 0));
  std::vector<Packet> unaligned{{0, {op(VOpc::kLdw, D1, regA(1), regA(2),
                                        kNoReg, 6)}}};
  EXPECT_THROW(encodeProgram(unaligned, 0), Error);
  std::vector<Packet> toobig{{0, {op(VOpc::kLdw, D1, regA(1), regA(2),
                                     kNoReg, 128)}}};
  EXPECT_THROW(encodeProgram(toobig, 0), Error);
  // Byte ops scale by 1.
  std::vector<Packet> byte{{0, {op(VOpc::kLdb, D1, regA(1), regA(2), kNoReg,
                                   -31)}}};
  EXPECT_NO_THROW(encodeProgram(byte, 0));
}

// ---- packet validation ---------------------------------------------------

TEST(V6xValidate, UnitConflictRejected) {
  Packet p{0, {op(VOpc::kAdd, L1, regA(1), regA(2), regA(3)),
               op(VOpc::kSub, L1, regA(4), regA(5), regA(6))}};
  EXPECT_THROW(validatePacket(p), Error);
  p.ops[1].unit = L2;
  EXPECT_NO_THROW(validatePacket(p));
}

TEST(V6xValidate, WrongUnitKindRejected) {
  Packet p{0, {op(VOpc::kShl, L1, regA(1), regA(2), regA(3))}};
  EXPECT_THROW(validatePacket(p), Error);  // shifts are S-unit only
  Packet q{0, {op(VOpc::kMpy, S1, regA(1), regA(2), regA(3))}};
  EXPECT_THROW(validatePacket(q), Error);
}

TEST(V6xValidate, MemUnitSideMustMatchBase) {
  Packet p{0, {op(VOpc::kLdw, D1, regA(1), regB(16), kNoReg, 0)}};
  EXPECT_THROW(validatePacket(p), Error);
  p.ops[0].unit = D2;
  EXPECT_NO_THROW(validatePacket(p));
}

TEST(V6xValidate, TwoBranchesRejected) {
  Packet p{0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg, 0),
               op(VOpc::kBr, S2, kNoReg, regA(5))}};
  EXPECT_THROW(validatePacket(p), Error);
}

TEST(V6xValidate, SameDestOnlyWithComplementaryPreds) {
  MachineOp x = mvk(regA(3), 1, S1);
  MachineOp y = mvk(regA(3), 2, S2);
  Packet p{0, {x, y}};
  EXPECT_THROW(validatePacket(p), Error);
  p.ops[0].pred = {PredReg::kA1, false};
  p.ops[1].pred = {PredReg::kA1, true};
  EXPECT_NO_THROW(validatePacket(p));
}

TEST(V6xValidate, NopMustBeAlone) {
  Packet p{0, {nop(2), mvk(regA(1), 5)}};
  EXPECT_THROW(validatePacket(p), Error);
}

// A V6X image is read from outside: every decoded packet is validated, so
// a malformed one fails at load instead of reaching the simulator.

TEST(V6xValidate, LoadRejectsTwelveOpChain) {
  std::vector<MachineOp> ops;
  for (int i = 0; i < 11; ++i) {
    ops.push_back(mvk(regA(i), i));
  }
  ops.push_back(halt());
  std::vector<uint8_t> code = encodeSingles(ops);
  for (size_t i = 0; i + 1 < ops.size(); ++i) {
    chainWord(code, i);
  }
  expectLoadError(rawImage(code), "1..8 ops");
}

TEST(V6xValidate, LoadRejectsNopZero) {
  std::vector<uint8_t> code = encodeSingles({nop(1), halt()});
  // The NOP count is the 16-bit immediate at bits 12..27.
  setWord(code, 0, word(code, 0) & ~(0xffffu << 12));
  expectLoadError(rawImage(code), "NOP count out of range");
}

TEST(V6xValidate, LoadRejectsTwoOpsOnOneUnit) {
  std::vector<uint8_t> code =
      encodeSingles({op(VOpc::kAdd, L1, regA(1), regA(2), regA(3)),
                     op(VOpc::kSub, L1, regA(4), regA(5), regA(6)), halt()});
  chainWord(code, 0);
  expectLoadError(rawImage(code), "used twice");
}

// ---- simulator semantics --------------------------------------------------

TEST(V6xSimTest, MvkMvkhMaterialiseConstants) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(4), 0x5678)}},
      {0, {op(VOpc::kMvkh, S1, regA(4), kNoReg, kNoReg, 0x1234)}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(4)), 0x12345678u);
}

TEST(V6xSimTest, SamePacketReadsOldValues) {
  // add reads a4 before the parallel mvk writes it.
  const V6xSim sim = runPackets({
      {0, {mvk(regA(4), 10)}},
      {0, {mvk(regA(4), 99), op(VOpc::kAdd, L1, regA(5), regA(4), regA(4))}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(5)), 20u);
  EXPECT_EQ(sim.reg(regA(4)), 99u);
}

TEST(V6xSimTest, MpyHasOneDelaySlot) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(1), 6)}},
      {0, {mvk(regA(2), 7)}},
      {0, {op(VOpc::kMpy, M1, regA(3), regA(1), regA(2))}},
      {0, {op(VOpc::kMv, L1, regA(4), regA(3))}},  // delay slot: old value
      {0, {op(VOpc::kMv, L2, regA(5), regA(3))}},  // now 42
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(4)), 0u);
  EXPECT_EQ(sim.reg(regA(5)), 42u);
}

TEST(V6xSimTest, LoadHasFourDelaySlots) {
  std::vector<Packet> packets;
  packets.push_back({0, {mvk(regA(8), 0x7000)}});
  packets.push_back({0, {mvk(regA(9), 0x1234)}});
  packets.push_back(
      {0, {op(VOpc::kStw, D1, regA(9), regA(8), kNoReg, 0)}});
  packets.push_back({0, {op(VOpc::kLdw, D1, regA(3), regA(8), kNoReg, 0)}});
  for (int i = 0; i < 4; ++i) {  // 4 delay slots read the old a3
    packets.push_back({0, {op(VOpc::kMv, L1, regA(10 + i), regA(3))}});
  }
  packets.push_back({0, {op(VOpc::kMv, L1, regA(14), regA(3))}});
  packets.push_back({0, {halt()}});
  const V6xSim sim = runPackets(std::move(packets));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sim.reg(regA(10 + i)), 0u) << "delay slot " << i;
  }
  EXPECT_EQ(sim.reg(regA(14)), 0x1234u);
}

TEST(V6xSimTest, SignExtendingLoads) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(8), 0x7100)}},
      {0, {mvk(regA(9), 0x80)}},
      {0, {op(VOpc::kStb, D1, regA(9), regA(8), kNoReg, 0)}},
      {0, {op(VOpc::kLdb, D1, regA(1), regA(8), kNoReg, 0)}},
      {0, {op(VOpc::kLdbu, D1, regA(2), regA(8), kNoReg, 0)}},
      {0, {nop(5)}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(1)), 0xffffff80u);
  EXPECT_EQ(sim.reg(regA(2)), 0x80u);
}

TEST(V6xSimTest, BranchHasFiveDelaySlots) {
  // Branch to the final halt; the five delay-slot packets still execute,
  // the one after them does not.
  std::vector<Packet> packets;
  const uint32_t base = 0x100000;
  // Packet layout (all single-op => 4 bytes each):
  // 0: B +? (computed below)  1..5: mvk a1..a5 = 1  6: mvk a6 = 1  7: halt
  packets.push_back({0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
                            static_cast<int32_t>(base + 7 * 4))}});
  for (int i = 1; i <= 6; ++i) {
    packets.push_back({0, {mvk(regA(i), 1)}});
  }
  packets.push_back({0, {halt()}});
  const V6xSim sim = runPackets(std::move(packets));
  for (int i = 1; i <= 5; ++i) {
    EXPECT_EQ(sim.reg(regA(i)), 1u) << "delay slot " << i;
  }
  EXPECT_EQ(sim.reg(regA(6)), 0u) << "skipped by the branch";
}

TEST(V6xSimTest, MultiCycleNopCoversDelaySlots) {
  // B followed by NOP 5 lands at the target with no extra packets.
  const uint32_t base = 0x100000;
  const V6xSim sim = runPackets({
      {0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(base + 3 * 4))}},
      {0, {nop(5)}},
      {0, {mvk(regA(1), 1)}},  // skipped
      {0, {mvk(regA(2), 1)}},  // branch target
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(1)), 0u);
  EXPECT_EQ(sim.reg(regA(2)), 1u);
  // Cycles: B(1) + NOP 5 (5) + target(1) + halt(1) = 8.
  EXPECT_EQ(sim.stats().cycles, 8u);
}

TEST(V6xSimTest, IndirectBranch) {
  const uint32_t base = 0x100000;
  // Target = base + 5*4 (the final halt); materialised with mvk/mvkh.
  const uint32_t target = base + 5 * 4;
  const V6xSim sim = runPackets({
      {0, {mvk(regA(5), static_cast<int32_t>(target & 0xffff))}},
      {0, {op(VOpc::kMvkh, S1, regA(5), kNoReg, kNoReg,
              static_cast<int32_t>(target >> 16))}},
      {0, {op(VOpc::kBr, S1, kNoReg, regA(5))}},
      {0, {nop(5)}},
      {0, {mvk(regA(1), 1)}},  // skipped
      {0, {halt()}},           // target
  });
  EXPECT_EQ(sim.reg(regA(1)), 0u);
  EXPECT_EQ(sim.state(), RunState::kHalted);
}

TEST(V6xSimTest, PredicationControlsExecution) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(1), 1)}},   // A1 = true
      {0, {mvk(regB(0), 0)}},   // B0 = false
      {0, {[] {
         MachineOp m = mvk(regA(5), 11);
         m.pred = {PredReg::kA1, false};
         return m;
       }()}},
      {0, {[] {
         MachineOp m = mvk(regA(6), 22);
         m.pred = {PredReg::kA1, true};  // [!A1]: skipped
         return m;
       }()}},
      {0, {[] {
         MachineOp m = mvk(regA(7), 33);
         m.pred = {PredReg::kB0, true};  // [!B0]: executes
         return m;
       }()}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(5)), 11u);
  EXPECT_EQ(sim.reg(regA(6)), 0u);
  EXPECT_EQ(sim.reg(regA(7)), 33u);
}

TEST(V6xSimTest, PredicatedFalseBranchDoesNotRedirect) {
  const uint32_t base = 0x100000;
  std::vector<Packet> packets;
  packets.push_back({0, {mvk(regA(1), 0)}});
  MachineOp b = op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
                   static_cast<int32_t>(base + 100));
  b.pred = {PredReg::kA1, false};  // [A1], A1 == 0: not taken
  packets.push_back({0, {b}});
  packets.push_back({0, {mvk(regA(2), 7)}});
  packets.push_back({0, {halt()}});
  const V6xSim sim = runPackets(std::move(packets));
  EXPECT_EQ(sim.reg(regA(2)), 7u);
  EXPECT_EQ(sim.stats().branches_taken, 0u);
}

TEST(V6xSimTest, OneCyclePerPacket) {
  const V6xSim sim = runPackets({
      {0, {mvk(regA(1), 1), mvk(regB(1), 2, S2),
           op(VOpc::kAdd, L1, regA(3), regA(4), regA(5)),
           op(VOpc::kSub, L2, regB(3), regB(4), regB(5))}},
      {0, {halt()}},
  });
  EXPECT_EQ(sim.stats().cycles, 2u);
  EXPECT_EQ(sim.stats().packets, 2u);
  EXPECT_EQ(sim.stats().ops, 5u);
}

TEST(V6xSimTest, DoubleWriteSameCycleTrapped) {
  // Two loads issued 0 and 1 cycles apart to the same dst commit in
  // different cycles - fine. An ALU op and an MPY writing the same reg
  // issued 1 cycle apart collide.
  std::vector<Packet> packets{
      {0, {op(VOpc::kMpy, M1, regA(3), regA(1), regA(2))}},
      {0, {op(VOpc::kAdd, L1, regA(3), regA(1), regA(2))}},
      {0, {halt()}},
  };
  V6xSim sim;
  sim.loadProgram(makeImage(std::move(packets)));
  EXPECT_THROW(sim.run(1000), Error);
}

TEST(V6xSimTest, BranchWhileBranchPendingTrapped) {
  const uint32_t base = 0x100000;
  std::vector<Packet> packets{
      {0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(base))}},
      {0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(base))}},
      {0, {halt()}},
  };
  V6xSim sim;
  sim.loadProgram(makeImage(std::move(packets)));
  EXPECT_THROW(sim.run(1000), Error);
}

/// Stores 0x55 at 0x7000 and sets a1 = 6, a2 = 7; packets 0..2, so the
/// next packet issues in slot 3.
std::vector<Packet> memoryPrologue() {
  return {
      {0, {mvk(regA(8), 0x7000), mvk(regA(1), 6, S2)}},
      {0, {mvk(regA(9), 0x55), mvk(regA(2), 7, S2)}},
      {0, {op(VOpc::kStw, D1, regA(9), regA(8), kNoReg, 0)}},
  };
}

MachineOp ldw(uint8_t dst) {
  return op(VOpc::kLdw, D1, dst, regA(8), kNoReg, 0);
}
MachineOp mpy(uint8_t dst) {
  return op(VOpc::kMpy, M1, dst, regA(1), regA(2));
}
MachineOp mv(uint8_t dst, uint8_t src) {
  return op(VOpc::kMv, L1, dst, src);
}

TEST(V6xSimTest, SameRegisterWritesLandInDueOrderMidRun) {
  // The load (slot 3) lands in slot 8; the mvk issued after it (slot 4)
  // lands first, in slot 5, and is then overwritten by the load.
  std::vector<Packet> packets = memoryPrologue();
  packets.push_back({0, {ldw(regA(3))}});                  // slot 3
  packets.push_back({0, {mvk(regA(3), 9)}});               // slot 4
  packets.push_back({0, {mv(regA(10), regA(3))}});         // slot 5
  packets.push_back({0, {mv(regA(11), regA(3))}});         // slot 6
  packets.push_back({0, {mv(regA(12), regA(3))}});         // slot 7
  packets.push_back({0, {mv(regA(13), regA(3))}});         // slot 8
  packets.push_back({0, {halt()}});
  const V6xSim sim = runPackets(std::move(packets));
  EXPECT_EQ(sim.reg(regA(10)), 9u);
  EXPECT_EQ(sim.reg(regA(11)), 9u);
  EXPECT_EQ(sim.reg(regA(12)), 9u);
  EXPECT_EQ(sim.reg(regA(13)), 0x55u);
  EXPECT_EQ(sim.reg(regA(3)), 0x55u);
}

TEST(V6xSimTest, HaltDrainsSameRegisterWritesInDueOrder) {
  // Issued load first, multiply second, but the multiply is due first
  // (slot 6 vs slot 8): the load's value is the one left standing.
  std::vector<Packet> early = memoryPrologue();
  early.push_back({0, {ldw(regA(3))}});         // slot 3, due 8
  early.push_back({0, {mpy(regA(3)), halt()}});  // slot 4, due 6
  EXPECT_EQ(runPackets(std::move(early)).reg(regA(3)), 0x55u);

  // Multiply issued late enough to be due after the load: it wins.
  std::vector<Packet> late = memoryPrologue();
  late.push_back({0, {ldw(regA(3))}});           // slot 3, due 8
  late.push_back({0, {nop(3)}});                 // slots 4..6
  late.push_back({0, {mpy(regA(3)), halt()}});   // slot 7, due 9
  EXPECT_EQ(runPackets(std::move(late)).reg(regA(3)), 42u);
}

TEST(V6xSimTest, HaltLandsEveryInFlightWrite) {
  std::vector<Packet> packets = memoryPrologue();
  packets.push_back({0, {ldw(regA(5))}});  // slot 3, due 8
  packets.push_back({0, {mpy(regA(6)), mvk(regA(7), 9, S2), halt()}});
  const V6xSim sim = runPackets(std::move(packets));
  EXPECT_EQ(sim.reg(regA(5)), 0x55u);
  EXPECT_EQ(sim.reg(regA(6)), 42u);
  EXPECT_EQ(sim.reg(regA(7)), 9u);
  EXPECT_EQ(sim.stats().issue_cycles, 5u);
}

TEST(V6xSimTest, LoadAndAluDueInOneSlotTrapped) {
  std::vector<Packet> packets = memoryPrologue();
  packets.push_back({0, {ldw(regA(3))}});     // slot 3, due 8
  packets.push_back({0, {nop(3)}});           // slots 4..6
  packets.push_back({0, {mvk(regA(3), 1)}});  // slot 7, due 8
  packets.push_back({0, {halt()}});
  expectRunError(std::move(packets), "commit in the same cycle");
}

TEST(V6xSimTest, IndirectBranchToNonPacketAddressTrapped) {
  // Outside the code, and into the middle of a two-op packet.
  for (const uint32_t target : {kBase + 0x1000, kBase + 5 * 4}) {
    std::vector<Packet> packets{
        {0, {mvk(regA(5), static_cast<int32_t>(target & 0xffff))}},
        {0, {op(VOpc::kMvkh, S1, regA(5), kNoReg, kNoReg,
                static_cast<int32_t>(target >> 16))}},
        {0, {op(VOpc::kBr, S1, kNoReg, regA(5))}},
        {0, {nop(5)}},
        {0, {mvk(regA(1), 1), mvk(regA(2), 2, S2)}},  // words 4 and 5
        {0, {halt()}},
    };
    expectRunError(std::move(packets), "not a packet start");
  }
}

TEST(V6xSimTest, BranchDelaySlotsSpanningANop) {
  // Delay slots: mvk a1, NOP 3 (three slots), mvk a2; the redirect
  // follows the fifth slot, so mvk a3 is skipped.
  const V6xSim sim = runPackets({
      {0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(kBase + 5 * 4))}},
      {0, {mvk(regA(1), 1)}},
      {0, {nop(3)}},
      {0, {mvk(regA(2), 1)}},
      {0, {mvk(regA(3), 1)}},  // skipped
      {0, {mvk(regA(4), 1)}},  // branch target
      {0, {halt()}},
  });
  EXPECT_EQ(sim.reg(regA(2)), 1u);
  EXPECT_EQ(sim.reg(regA(3)), 0u);
  EXPECT_EQ(sim.reg(regA(4)), 1u);
  EXPECT_EQ(sim.stats().cycles, 8u);
  EXPECT_EQ(sim.stats().issue_cycles, 8u);
}

TEST(V6xSimTest, BranchRedirectInsideALongNop) {
  // NOP 9 outlasts the five delay slots: the redirect happens while the
  // machine idles, and the target issues right after the NOP.
  const V6xSim sim = runPackets({
      {0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(kBase + 3 * 4))}},
      {0, {nop(9)}},
      {0, {mvk(regA(1), 1)}},  // skipped
      {0, {halt()}},           // branch target
  });
  EXPECT_EQ(sim.reg(regA(1)), 0u);
  EXPECT_EQ(sim.stats().cycles, 11u);
  EXPECT_EQ(sim.stats().nop_cycles, 9u);
  EXPECT_EQ(sim.stats().branches_taken, 1u);
  // The tail passes in one step, the redirect inside it at its slot:
  // budget stops before, at and after the redirect see the same machine
  // as a cycle-by-cycle run.
  expectBudgetStopsInvisible({
      {0, {op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
              static_cast<int32_t>(kBase + 3 * 4))}},
      {0, {nop(9)}},
      {0, {mvk(regA(1), 1)}},
      {0, {halt()}},
  });
}

TEST(V6xSimTest, BudgetEndingInsideANopTailResumes) {
  V6xSim sim;
  sim.loadProgram(makeImage({
      {0, {mvk(regA(1), 1)}},
      {0, {nop(9)}},
      {0, {mvk(regA(2), 2)}},
      {0, {halt()}},
  }));
  EXPECT_EQ(sim.run(4), RunState::kMaxCycles);  // mvk, nop, 2 tail cycles
  EXPECT_EQ(sim.stats().cycles, 4u);
  EXPECT_EQ(sim.stats().issue_cycles, 4u);
  EXPECT_EQ(sim.state(), RunState::kRunning);
  EXPECT_EQ(sim.run(5), RunState::kMaxCycles);  // 5 of the 6 left
  EXPECT_EQ(sim.stats().cycles, 9u);
  EXPECT_EQ(sim.reg(regA(2)), 0u);
  EXPECT_EQ(sim.run(100), RunState::kHalted);
  EXPECT_EQ(sim.reg(regA(2)), 2u);
  EXPECT_EQ(sim.stats().cycles, 12u);
  EXPECT_EQ(sim.stats().nop_cycles, 9u);
  expectBudgetStopsInvisible({
      {0, {mvk(regA(1), 1)}},
      {0, {nop(9)}},
      {0, {mvk(regA(2), 2)}},
      {0, {halt()}},
  });
}

TEST(V6xSimTest, LoadLandingInsideNop9) {
  // The load is due 5 slots after it issues, in the middle of the NOP's
  // tail; a budget stop on either side of that slot shows the old or the
  // new value exactly as a cycle-by-cycle run does.
  const std::vector<Packet> packets{
      {0, {mvk(regA(8), 0x7000)}},
      {0, {mvk(regA(9), 0x55)}},
      {0, {op(VOpc::kStw, D1, regA(9), regA(8), kNoReg, 0)}},
      {0, {op(VOpc::kLdw, D1, regA(3), regA(8), kNoReg, 0)}},
      {0, {op(VOpc::kMpy, M1, regA(4), regA(9), regA(9))}},  // due slot 6
      {0, {nop(9)}},
      {0, {halt()}},
  };
  V6xSim sim;
  sim.loadProgram(makeImage(packets));
  // ld issues in slot 3 and is due in slot 8, mpy in slot 4 and due in
  // slot 6; the NOP issues in slot 5, so its tail covers slots 6..13. A
  // stop presents the writes due in the slot it rests on: slot 7 after
  // 7 cycles, slot 8 after 8.
  EXPECT_EQ(sim.run(7), RunState::kMaxCycles);
  EXPECT_EQ(sim.reg(regA(3)), 0u);
  EXPECT_EQ(sim.reg(regA(4)), 0x55u * 0x55u);
  EXPECT_EQ(sim.run(1), RunState::kMaxCycles);
  EXPECT_EQ(sim.reg(regA(3)), 0x55u);
  EXPECT_EQ(sim.run(100), RunState::kHalted);
  EXPECT_EQ(sim.reg(regA(3)), 0x55u);
  EXPECT_EQ(sim.stats().cycles, 15u);
  expectBudgetStopsInvisible(packets);
}

// ---- device stalls ---------------------------------------------------------

TEST(V6xSimTest, DeviceStallFreezesMachine) {
  V6xSim sim;
  StallingHandler handler(&sim, 3);
  std::vector<Packet> packets{
      {0, {mvk(regA(8), 0)}},
      {0, {op(VOpc::kMvkh, S1, regA(8), kNoReg, kNoReg, 0xfe00)}},
      {0, {op(VOpc::kLdw, D1, regA(3), regA(8), kNoReg, 0)}},
      {0, {nop(5)}},
      {0, {halt()}},
  };
  sim.loadProgram(makeImage(std::move(packets)));
  sim.addIoHandler(&handler);
  EXPECT_EQ(sim.run(1000), RunState::kHalted);
  EXPECT_EQ(sim.reg(regA(3)), 0xabcdu);
  EXPECT_EQ(handler.loads_, 1u);  // performed exactly once
  EXPECT_EQ(sim.stats().stall_cycles, 3u);
  // mvk + mvkh + (3 stalls + ld) + nop5 + halt = 2 + 4 + 5 + 1 = 12.
  EXPECT_EQ(sim.stats().cycles, 12u);
}

TEST(V6xSimTest, ClockHearsEachAccessCycleAndEveryStop) {
  // The clocked hardware hears the elapsed cycle count before each
  // handler call, the current cycle included, and once more at the stop.
  // A refused access is asked about in the cycle it is refused in and in
  // the cycle its refusal ends, never in between. Nothing else.
  class RecordingHandler : public StallingHandler {
   public:
    RecordingHandler(const V6xSim* sim,
                     const std::vector<uint64_t>* heard, unsigned stalls)
        : StallingHandler(sim, stalls), heard_(heard) {}
    uint64_t refusedCycles(uint32_t addr, bool is_write) override {
      asked_at.push_back(heard_->empty() ? 0 : heard_->back());
      return StallingHandler::refusedCycles(addr, is_write);
    }
    std::vector<uint64_t> asked_at;

   private:
    const std::vector<uint64_t>* heard_;
  };
  std::vector<uint64_t> heard;
  V6xSim sim;
  RecordingHandler handler(&sim, &heard, 2);
  sim.loadProgram(makeImage({
      {0, {mvk(regA(8), 0)}},
      {0, {op(VOpc::kMvkh, S1, regA(8), kNoReg, kNoReg, 0xfe00)}},
      {0, {op(VOpc::kStw, D1, regA(8), regA(8), kNoReg, 0)}},
      {0, {nop(9)}},
      {0, {halt()}},
  }));
  sim.addIoHandler(&handler);
  sim.setClock([&heard](uint64_t cycles) { heard.push_back(cycles); });
  EXPECT_EQ(sim.run(1000), RunState::kHalted);
  EXPECT_EQ(sim.stats().stall_cycles, 2u);
  // The store is refused in cycle 3 for cycles 3 and 4 and completes in
  // cycle 5; the stop comes after cycle 15.
  EXPECT_EQ(handler.asked_at, (std::vector<uint64_t>{3, 5}));
  EXPECT_EQ(heard, (std::vector<uint64_t>{3, 5, 15}));
  EXPECT_EQ(sim.stats().cycles, 15u);
}

TEST(V6xSimTest, BudgetEndingInsideAStallResumes) {
  // A refusal of 6 cycles passes in one step, clipped to the budget: a
  // budget that ends inside it leaves the packet to retry, and the retry
  // is refused for the rest of the wait.
  const std::vector<Packet> packets{
      {0, {mvk(regA(8), 0)}},
      {0, {op(VOpc::kMvkh, S1, regA(8), kNoReg, kNoReg, 0xfe00)}},
      {0, {op(VOpc::kLdw, D1, regA(3), regA(8), kNoReg, 0)}},
      {0, {nop(5)}},
      {0, {halt()}},
  };
  V6xSim sim;
  StallingHandler handler(&sim, 6);
  sim.loadProgram(makeImage(packets));
  sim.addIoHandler(&handler);
  EXPECT_EQ(sim.run(4), RunState::kMaxCycles);  // mvk, mvkh, 2 stalls
  EXPECT_EQ(sim.stats().cycles, 4u);
  EXPECT_EQ(sim.stats().stall_cycles, 2u);
  EXPECT_EQ(sim.stats().issue_cycles, 2u);
  EXPECT_EQ(sim.run(3), RunState::kMaxCycles);  // 3 of the 4 stalls left
  EXPECT_EQ(sim.stats().stall_cycles, 5u);
  EXPECT_EQ(handler.loads_, 0u);
  EXPECT_EQ(sim.run(100), RunState::kHalted);
  EXPECT_EQ(handler.loads_, 1u);
  EXPECT_EQ(sim.reg(regA(3)), 0xabcdu);
  EXPECT_EQ(sim.stats().stall_cycles, 6u);
  // mvk + mvkh + (6 stalls + ld) + nop5 + halt = 2 + 7 + 5 + 1 = 15.
  EXPECT_EQ(sim.stats().cycles, 15u);
  expectBudgetStopsInvisible(packets, 6);
}

TEST(V6xSimTest, StallJumpEqualsCycleByCycle) {
  // Stalls of 1 to 7 cycles on a load and a store in a counted loop, with
  // a load in flight and a branch counting down across each stall: one
  // run(), a run(1) loop and a budget stop at every cycle see the same
  // machine.
  MachineOp loop_back = op(VOpc::kB, S1, kNoReg, kNoReg, kNoReg,
                           static_cast<int32_t>(kBase + 3 * 4));
  loop_back.pred = {PredReg::kA1, false};  // while a1 != 0
  const std::vector<Packet> packets{
      {0, {mvk(regA(8), 0)}},
      {0, {op(VOpc::kMvkh, S1, regA(8), kNoReg, kNoReg, 0xfe00),
           mvk(regA(1), 3, S2)}},
      {0, {op(VOpc::kLdw, D1, regA(3), regA(8), kNoReg, 0)}},  // kBase + 12
      {0, {loop_back, op(VOpc::kAddk, S2, regA(1), kNoReg, kNoReg, -1)}},
      {0, {op(VOpc::kStw, D1, regA(3), regA(8), kNoReg, 4)}},
      {0, {mvk(regA(4), 1)}},
      {0, {nop(3)}},
      {0, {halt()}},
  };
  for (unsigned stall = 1; stall <= 7; ++stall) {
    SCOPED_TRACE("stall " + std::to_string(stall));
    expectBudgetStopsInvisible(packets, stall);
  }
}

TEST(V6xSimTest, YieldStopsAndResumes) {
  std::vector<Packet> packets{
      {0, {mvk(regA(1), 5)}},
      {0, {op(VOpc::kYield, S1, kNoReg)}},
      {0, {mvk(regA(2), 6)}},
      {0, {halt()}},
  };
  V6xSim sim;
  sim.loadProgram(makeImage(std::move(packets)));
  EXPECT_EQ(sim.run(1000), RunState::kYielded);
  EXPECT_EQ(sim.reg(regA(1)), 5u);
  EXPECT_EQ(sim.reg(regA(2)), 0u);
  EXPECT_EQ(sim.run(1000), RunState::kHalted);
  EXPECT_EQ(sim.reg(regA(2)), 6u);
}

TEST(V6xSimTest, BreakpointsStopBeforePacket) {
  std::vector<Packet> packets{
      {0, {mvk(regA(1), 5)}},
      {0, {mvk(regA(2), 6)}},
      {0, {halt()}},
  };
  const elf::Object image = makeImage(std::move(packets));
  V6xSim sim;
  sim.loadProgram(image);
  sim.addBreakpoint(0x100004);
  EXPECT_EQ(sim.run(1000), RunState::kBreakpoint);
  EXPECT_EQ(sim.pc(), 0x100004u);
  EXPECT_EQ(sim.reg(regA(1)), 5u);
  EXPECT_EQ(sim.reg(regA(2)), 0u);
  EXPECT_EQ(sim.resume(1000), RunState::kHalted);
  EXPECT_EQ(sim.reg(regA(2)), 6u);
}

TEST(V6xSimTest, BreakpointStopReportsNoExtraCycle) {
  // The clock drives the synchronization device: a stop must not give it
  // a cycle the machine never ran.
  V6xSim sim;
  sim.loadProgram(makeImage({
      {0, {mvk(regA(1), 5)}},
      {0, {mvk(regA(2), 6)}},
      {0, {halt()}},
  }));
  std::vector<uint64_t> heard;
  sim.setClock([&heard](uint64_t cycles) { heard.push_back(cycles); });
  sim.addBreakpoint(kBase + 4);
  EXPECT_EQ(sim.run(1000), RunState::kBreakpoint);
  EXPECT_EQ(heard, (std::vector<uint64_t>{1}));
  EXPECT_EQ(sim.resume(1000), RunState::kHalted);
  EXPECT_EQ(heard, (std::vector<uint64_t>{1, 3}));
  EXPECT_EQ(sim.stats().cycles, 3u);
}

TEST(V6xSimTest, BudgetStopCommitsLikeABreakpointStop) {
  // Both stops rest before the second mvk with the first one's result
  // due in the current slot: each must present it.
  const elf::Object image = makeImage({
      {0, {mvk(regA(1), 5)}},
      {0, {mvk(regA(2), 7)}},
      {0, {halt()}},
  });
  V6xSim budget;
  budget.loadProgram(image);
  EXPECT_EQ(budget.run(1), RunState::kMaxCycles);
  EXPECT_EQ(budget.reg(regA(1)), 5u);
  V6xSim bp;
  bp.loadProgram(image);
  bp.addBreakpoint(kBase + 4);
  EXPECT_EQ(bp.run(1000), RunState::kBreakpoint);
  for (uint8_t r = 0; r < 2 * kRegsPerFile; ++r) {
    EXPECT_EQ(budget.reg(r), bp.reg(r)) << regName(r);
  }
  EXPECT_EQ(budget.pc(), bp.pc());
  EXPECT_EQ(budget.stats().cycles, bp.stats().cycles);
  EXPECT_EQ(budget.run(1000), RunState::kHalted);
  EXPECT_EQ(bp.resume(1000), RunState::kHalted);
  expectSameMachine(bp, budget, "after resuming both");
}

TEST(V6xSimTest, ToStringIsReadable) {
  MachineOp m = op(VOpc::kLdw, D2, regA(5), regB(16), kNoReg, -8);
  m.pred = {PredReg::kB0, true};
  EXPECT_EQ(m.toString(), "[!b0] ldw.d2 a5, [b16]-8");
  EXPECT_EQ(mvk(regA(1), 7).toString(), "mvk.s1 a1, 7");
  EXPECT_EQ(nop(3).toString(), "nop 3");
}

}  // namespace
}  // namespace cabt::vliw
