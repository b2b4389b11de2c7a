// Tests for the architecture description, its XML loader, and the shared
// pipeline timing model.
#include <gtest/gtest.h>

#include "arch/arch.h"
#include "arch/timing.h"
#include "common/error.h"

namespace cabt::arch {
namespace {

TEST(ArchXml, DefaultDescriptionParses) {
  const ArchDescription desc = ArchDescription::defaultTc10gp();
  EXPECT_EQ(desc.name, "trc32-tc10gp");
  EXPECT_EQ(desc.clock_hz, 48'000'000u);
  EXPECT_TRUE(desc.pipeline.dual_issue);
  EXPECT_EQ(desc.pipeline.mul_latency, 2u);
  EXPECT_EQ(desc.pipeline.load_latency, 2u);
  EXPECT_EQ(desc.branch.taken_predicted_extra, 1u);
  EXPECT_EQ(desc.branch.mispredict_extra, 2u);
  EXPECT_TRUE(desc.icache.enabled);
  EXPECT_EQ(desc.icache.sets, 64u);
  EXPECT_EQ(desc.icache.ways, 2u);
  EXPECT_FALSE(desc.dcache.enabled);
  ASSERT_NE(desc.memory_map.findNamed("ram"), nullptr);
  EXPECT_EQ(desc.memory_map.findNamed("ram")->remap_base, 0x00800000u);
  EXPECT_EQ(desc.memory_map.kindOf(0xf0000100), RegionKind::kIo);
}

TEST(ArchXml, CustomDescription) {
  const ArchDescription desc = parseArchXml(R"(
<processor name="tiny" clock_hz="1000000">
  <pipeline dual_issue="0">
    <latency class="mul" cycles="4"/>
  </pipeline>
  <icache enabled="0"/>
</processor>)");
  EXPECT_EQ(desc.name, "tiny");
  EXPECT_FALSE(desc.pipeline.dual_issue);
  EXPECT_EQ(desc.pipeline.mul_latency, 4u);
  EXPECT_FALSE(desc.icache.enabled);
}

TEST(ArchXml, RejectsBadInput) {
  EXPECT_THROW(parseArchXml("<cpu/>"), Error);
  EXPECT_THROW(parseArchXml(
                   "<processor><pipeline><latency class='bogus' cycles='1'/>"
                   "</pipeline></processor>"),
               Error);
  EXPECT_THROW(parseArchXml("<processor><memorymap>"
                            "<region name='x' base='0' size='16' kind='?'/>"
                            "</memorymap></processor>"),
               Error);
  // A region that wraps past 0xffffffff onto another, and sizes or
  // bases that are not 32-bit values.
  EXPECT_THROW(
      parseArchXml("<processor><memorymap>"
                   "<region name='lo' base='0' size='0x100' kind='ram'/>"
                   "<region name='hi' base='0xfffffff0' size='0x20' "
                   "kind='ram'/></memorymap></processor>"),
      Error);
  EXPECT_THROW(parseArchXml("<processor><memorymap>"
                            "<region name='x' base='0x10' size='-1' "
                            "kind='ram'/></memorymap></processor>"),
               Error);
  EXPECT_THROW(parseArchXml("<processor><memorymap>"
                            "<region name='x' base='0x100000000' size='4' "
                            "kind='ram'/></memorymap></processor>"),
               Error);
  // Cache geometries ICacheState cannot hold: more ways than its packed
  // 32-bit LRU word has bytes, and a set count whose tag array would be
  // sized by the input (2^31 sets ask for 16 GiB).
  for (const char* cache : {"sets='64' ways='5'", "sets='64' ways='8'",
                            "sets='2147483648' ways='2'"}) {
    SCOPED_TRACE(cache);
    EXPECT_THROW(parseArchXml(std::string("<processor><icache ") + cache +
                              "/></processor>"),
                 Error);
  }
  MemoryMap map;
  EXPECT_THROW(map.addRegion({"wrap", 0xfffffff0u, 0x20, RegionKind::kRam,
                              0xfffffff0u}),
               Error);
  map.addRegion({"top", 0xfffffff0u, 0x10, RegionKind::kRam, 0xfffffff0u});
  EXPECT_EQ(map.find(0xffffffffu)->name, "top");
}

TEST(ICacheGeometry, AddressDecomposition) {
  ICacheModel m;
  m.sets = 64;
  m.ways = 2;
  m.line_bytes = 16;
  EXPECT_EQ(m.offsetBits(), 4u);
  EXPECT_EQ(m.setBits(), 6u);
  EXPECT_EQ(m.lineOf(0x80000040), 0x8000004u);
  EXPECT_EQ(m.setOf(0x80000040), 4u);
  EXPECT_EQ(m.setOf(0x80000400), 0u);  // wraps at sets*line
  EXPECT_EQ(m.tagOf(0x80000400), 0x200001u);
}

TEST(ICacheGeometry, ValidationRejectsBadGeometry) {
  ICacheModel m;
  m.sets = 48;
  EXPECT_THROW(m.validate(), Error);
  m.sets = 64;
  m.line_bytes = 12;
  EXPECT_THROW(m.validate(), Error);
}

// ---- PipelineTimer ------------------------------------------------------

PipelineModel defaultPipe() { return PipelineModel{}; }

TimedOp alu(int dst, int s1 = TimedOp::kNoReg, int s2 = TimedOp::kNoReg) {
  return {OpClass::kIpAlu, dst, s1, s2};
}
TimedOp lsAlu(int dst, int s1 = TimedOp::kNoReg) {
  return {OpClass::kLsAlu, dst, s1, TimedOp::kNoReg};
}
TimedOp load(int dst, int base) {
  return {OpClass::kLoad, dst, base, TimedOp::kNoReg};
}
TimedOp store(int val, int base) {
  return {OpClass::kStore, TimedOp::kNoReg, val, base};
}
TimedOp mul(int dst, int s1, int s2) { return {OpClass::kMul, dst, s1, s2}; }

TEST(PipelineTimer, IndependentAluOpsAreOnePerCycle) {
  // Two IP-class ops never pair (only IP followed by LS pairs).
  EXPECT_EQ(sequenceCycles(defaultPipe(), {alu(0), alu(1), alu(2)}), 3u);
}

TEST(PipelineTimer, IpLsPairIssuesTogether) {
  // IP op then an independent LS op: one cycle total.
  EXPECT_EQ(sequenceCycles(defaultPipe(), {alu(0), lsAlu(16)}), 1u);
  // Triple: IP+LS pair, then another IP in the next cycle.
  EXPECT_EQ(sequenceCycles(defaultPipe(), {alu(0), lsAlu(16), alu(1)}), 2u);
}

TEST(PipelineTimer, PairBlockedByDependency) {
  // LS op reads the IP result: no same-cycle forwarding, so two cycles.
  EXPECT_EQ(sequenceCycles(defaultPipe(), {alu(0), lsAlu(16, 0)}), 2u);
}

TEST(PipelineTimer, PairBlockedByDualIssueDisabled) {
  PipelineModel m;
  m.dual_issue = false;
  EXPECT_EQ(sequenceCycles(m, {alu(0), lsAlu(16)}), 2u);
}

TEST(PipelineTimer, LsThenIpDoesNotPair) {
  EXPECT_EQ(sequenceCycles(defaultPipe(), {lsAlu(16), alu(0)}), 2u);
}

TEST(PipelineTimer, LoadUseStall) {
  // Load result has latency 2: a dependent consumer one instruction later
  // stalls one cycle.
  EXPECT_EQ(sequenceCycles(defaultPipe(), {load(0, 16), alu(1, 0)}), 3u);
  // An independent instruction in between hides the latency.
  EXPECT_EQ(sequenceCycles(defaultPipe(), {load(0, 16), alu(2), alu(1, 0)}),
            3u);
}

TEST(PipelineTimer, MulLatency) {
  EXPECT_EQ(sequenceCycles(defaultPipe(), {mul(0, 1, 2), alu(3, 0)}), 3u);
  EXPECT_EQ(sequenceCycles(defaultPipe(), {mul(0, 1, 2), alu(3, 4)}), 2u);
}

TEST(PipelineTimer, StoreHasNoResult) {
  EXPECT_EQ(sequenceCycles(defaultPipe(), {alu(0), store(0, 16)}), 2u);
  // Independent store pairs with a preceding IP op.
  EXPECT_EQ(sequenceCycles(defaultPipe(), {alu(0), store(1, 16)}), 1u);
}

TEST(PipelineTimer, WawInPairForbidden) {
  // LS op writing the same register as the paired IP op must not issue in
  // the same cycle.
  EXPECT_EQ(sequenceCycles(defaultPipe(), {alu(5), load(5, 16)}), 2u);
}

TEST(PipelineTimer, ResetDrainsState) {
  PipelineModel m;
  PipelineTimer timer(m);
  timer.issue(load(0, 16));
  timer.reset();
  // After a drain the loaded register is immediately usable.
  EXPECT_EQ(timer.issue(alu(1, 0)), 0u);
}

TEST(PipelineTimer, IssueReturnsScheduleCycles) {
  PipelineModel m;
  PipelineTimer timer(m);
  EXPECT_EQ(timer.issue(alu(0)), 0u);
  EXPECT_EQ(timer.issue(lsAlu(16)), 0u);  // pairs
  EXPECT_EQ(timer.issue(alu(1, 0)), 1u);
  EXPECT_EQ(timer.cycles(), 2u);
}

TEST(BranchModel, StaticPrediction) {
  EXPECT_TRUE(BranchModel::predictsTaken(-4));
  EXPECT_FALSE(BranchModel::predictsTaken(4));
  EXPECT_FALSE(BranchModel::predictsTaken(0));
}

TEST(BranchModel, ConditionalExtras) {
  BranchModel bm;
  EXPECT_EQ(bm.conditionalExtra(true, true), bm.taken_predicted_extra);
  EXPECT_EQ(bm.conditionalExtra(true, false), bm.mispredict_extra);
  EXPECT_EQ(bm.conditionalExtra(false, true), bm.mispredict_extra);
  EXPECT_EQ(bm.conditionalExtra(false, false), 0u);
}

TEST(BranchModel, UnconditionalExtras) {
  BranchModel bm;
  EXPECT_EQ(bm.unconditionalExtra(OpClass::kBranchUncond),
            bm.taken_predicted_extra);
  EXPECT_EQ(bm.unconditionalExtra(OpClass::kCall), bm.taken_predicted_extra);
  EXPECT_EQ(bm.unconditionalExtra(OpClass::kBranchInd), bm.indirect_extra);
  EXPECT_EQ(bm.unconditionalExtra(OpClass::kIpAlu), 0u);
}

}  // namespace
}  // namespace cabt::arch
