// Workload tests: every program assembles, runs to completion on the
// reference ISS, produces the expected checksum where independently
// known, and is functionally + cycle equivalent when translated at every
// detail level (the central integration property of the reproduction).
#include <gtest/gtest.h>

#include "iss/iss.h"
#include "platform/platform.h"
#include "trc/assembler.h"
#include "workloads/workloads.h"
#include "xlat/translator.h"

namespace cabt::workloads {
namespace {

arch::ArchDescription defaultArch() {
  return arch::ArchDescription::defaultTc10gp();
}

struct WorkloadLevel {
  std::string name;
  xlat::DetailLevel level;
};

class WorkloadsAtLevel : public ::testing::TestWithParam<WorkloadLevel> {};

TEST_P(WorkloadsAtLevel, TranslationEquivalentToReference) {
  const auto& [name, level] = GetParam();
  const Workload& w = get(name);
  const arch::ArchDescription desc = defaultArch();
  const elf::Object obj = assemble(w);

  iss::Iss ref(desc, obj);
  ASSERT_EQ(ref.run(), iss::StopReason::kHalted) << w.name;
  if (w.expected_checksum) {
    EXPECT_EQ(readChecksum(obj, ref.memory()), *w.expected_checksum);
  }

  xlat::TranslateOptions opts;
  opts.level = level;
  const xlat::TranslationResult t = xlat::translate(desc, obj, opts);
  platform::EmulationPlatform plat(desc, t.image);
  const platform::RunResult run = plat.run();
  ASSERT_EQ(run.state, vliw::RunState::kHalted) << w.name;

  EXPECT_EQ(platform::compareFinalState(desc, ref, plat, obj), "");

  // Cycle accuracy: the branch-prediction level reproduces everything but
  // cache misses; the icache level is exact.
  if (level == xlat::DetailLevel::kICache) {
    EXPECT_EQ(run.generated_cycles, ref.stats().cycles);
  }
  if (level == xlat::DetailLevel::kBranchPredict) {
    EXPECT_EQ(run.generated_cycles + ref.stats().cache_penalty,
              ref.stats().cycles);
  }
  if (level == xlat::DetailLevel::kStatic) {
    EXPECT_LE(run.generated_cycles, ref.stats().cycles);
  }
}

std::vector<WorkloadLevel> allCombos() {
  std::vector<WorkloadLevel> combos;
  for (const Workload& w : all()) {
    for (const xlat::DetailLevel level : xlat::kDetailLevels) {
      combos.push_back({w.name, level});
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadsAtLevel, ::testing::ValuesIn(allCombos()),
    [](const ::testing::TestParamInfo<WorkloadLevel>& info) {
      std::string name = info.param.name + "_" +
                         xlat::detailLevelName(info.param.level);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Workloads, InstructionCountsInPaperRange) {
  // Table 2 reports 1484 (gcd), 41419 (fibonacci), 20779 (sieve); our
  // programs land in the same order of magnitude.
  const arch::ArchDescription desc = defaultArch();
  const auto countOf = [&desc](const char* name) {
    iss::Iss ref(desc, assemble(get(name)));
    EXPECT_EQ(ref.run(), iss::StopReason::kHalted);
    return ref.stats().instructions;
  };
  const uint64_t gcd = countOf("gcd");
  EXPECT_GT(gcd, 500u);
  EXPECT_LT(gcd, 5000u);
  const uint64_t fib = countOf("fibonacci");
  EXPECT_GT(fib, 30000u);
  EXPECT_LT(fib, 60000u);
  const uint64_t sieve = countOf("sieve");
  EXPECT_GT(sieve, 10000u);
  EXPECT_LT(sieve, 40000u);
}

TEST(Workloads, LargeBlockProgramsHaveLargeBlocks) {
  const arch::ArchDescription desc = defaultArch();
  const auto avgBlockLen = [&desc](const std::string& name) {
    const xlat::TranslationResult t =
        xlat::translate(desc, assemble(get(name)), {});
    double instrs = 0;
    for (const auto& [addr, info] : t.blocks) {
      instrs += info.num_instrs;
    }
    return instrs / static_cast<double>(t.blocks.size());
  };
  // Paper: ellip and subband consist of large basic blocks, sieve of many
  // small ones.
  EXPECT_GT(avgBlockLen("ellip"), 2.0 * avgBlockLen("sieve"));
  EXPECT_GT(avgBlockLen("subband"), 2.0 * avgBlockLen("sieve"));
}

TEST(Workloads, LookupAndLists) {
  EXPECT_EQ(all().size(), 7u);
  EXPECT_EQ(figure5Names().size(), 6u);
  EXPECT_EQ(table2Names().size(), 3u);
  EXPECT_EQ(get("gcd").name, "gcd");
  EXPECT_THROW(get("nope"), Error);
  for (const std::string& n : figure5Names()) {
    EXPECT_NO_THROW(get(n));
  }
}

}  // namespace
}  // namespace cabt::workloads
