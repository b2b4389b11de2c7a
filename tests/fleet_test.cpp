// Differential tests for the board-fleet driver (src/fleet, DESIGN.md
// section 14).
//
// The claims under test: (1) scheduling M boards over host threads is
// bit-identical to running the same M boards one after another — the
// same snap::Observation per board, digest and bus transaction log
// included; (2) the whole fleet shares one program artifact per
// distinct image (one decode, M-1 cache hits), even under batch
// activation; (3) snapshot-forked fleets start bit-identical to the
// warm prototype and only diverge where the scenario hook diverges
// them.
#include <gtest/gtest.h>

#include <vector>

#include "core/program_artifact.h"
#include "fleet/fleet.h"
#include "platform/platform.h"
#include "snap/observe.h"
#include "snap/snapshot.h"
#include "workloads/workloads.h"

namespace cabt {
namespace {

/// family() boards at the default grid point (icache detail, threaded
/// engine).
platform::BoardConfig boardConfig(const workloads::BoardImages& images) {
  platform::BoardConfig base;
  base.iss.extra_leaders = images.extraLeaders();
  base.iss.max_instructions = 30'000;
  base.quantum = 256;
  return snap::boardConfigFor({}, base);
}

fleet::FleetConfig fleetConfig(const workloads::BoardImages& images,
                               size_t boards) {
  fleet::FleetConfig cfg;
  cfg.desc = arch::ArchDescription::defaultTc10gp();
  cfg.board = boardConfig(images);
  cfg.boards = boards;
  cfg.host_threads = 4;  // force real cross-thread scheduling
  return cfg;
}

// M identical multi-core boards scheduled concurrently over the fleet
// driver are bit-identical — every observable, the full bus transaction
// log and the digest included — to the same M boards run sequentially,
// one by one, without the driver.
TEST(Fleet, ConcurrentBoardsMatchSequentialRuns) {
  const auto images = workloads::BoardImages::family(2);
  constexpr size_t kBoards = 4;

  std::vector<snap::Observation> fleet_obs(kBoards);
  fleet::FleetConfig cfg = fleetConfig(images, kBoards);
  cfg.inspect = [&fleet_obs](size_t i, platform::ReferenceBoard& b) {
    fleet_obs[i] = snap::observe(b);
  };
  fleet::Driver driver(cfg);
  const fleet::FleetResult result = driver.run(images.ptrs());

  ASSERT_EQ(result.boards.size(), kBoards);
  EXPECT_TRUE(result.digestsAgree());
  EXPECT_GT(result.totalInstructions(), 0u);

  for (size_t i = 0; i < kBoards; ++i) {
    SCOPED_TRACE("board " + std::to_string(i));
    platform::ReferenceBoard board(cfg.desc, images.ptrs(),
                                   boardConfig(images));
    board.run();
    EXPECT_EQ(result.boards[i].digest, fleet_obs[i].digest);
    EXPECT_EQ(snap::firstMismatch(snap::observe(board), fleet_obs[i]), "");
  }
}

// Batch activation bounds how many boards are live at once, yet the
// whole fleet still pays exactly one decode per distinct image: the
// driver pins the shared artifacts for the duration of the run, so a
// wave boundary cannot expire them.
TEST(Fleet, BatchedFleetDecodesEachImageOnce) {
  const auto images = workloads::BoardImages::family(1);
  constexpr size_t kBoards = 6;

  core::ProgramArtifactCache::instance().clear();
  fleet::FleetConfig cfg = fleetConfig(images, kBoards);
  cfg.batch = 2;  // three activation waves
  fleet::Driver driver(cfg);
  const fleet::FleetResult result = driver.run(images.ptrs());

  EXPECT_TRUE(result.digestsAgree());
  EXPECT_EQ(result.artifact.decodes, 1u);
  // The pin plus every board's core resolve to the same live artifact.
  EXPECT_GE(result.artifact.hits, kBoards);
}

// Snapshot-forked fleet, no divergence hook: every fork resumes from
// the warm prototype's state and finishes bit-identical to a board that
// simply ran the whole way through.
TEST(Fleet, UndivergedForksMatchStraightRun) {
  const auto images = workloads::BoardImages::family(1);
  constexpr size_t kForks = 3;

  platform::ReferenceBoard straight(arch::ArchDescription::defaultTc10gp(),
                                    images.ptrs(), boardConfig(images));
  straight.run();
  const uint64_t straight_digest = snap::digest(straight);

  fleet::Driver driver(fleetConfig(images, kForks));
  const fleet::FleetResult result =
      driver.runForked(images.ptrs(), 512, nullptr);

  ASSERT_EQ(result.boards.size(), kForks);
  for (size_t i = 0; i < kForks; ++i) {
    EXPECT_EQ(result.boards[i].digest, straight_digest)
        << "fork " << i << " diverged from the straight run";
  }
}

// With a divergence hook, each fork becomes a distinct scenario: the
// per-fork state poke lands in the digest, so all forks differ from the
// undiverged run and from each other, deterministically run-to-run.
TEST(Fleet, DivergedForksDifferDeterministically) {
  const auto images = workloads::BoardImages::family(1);
  constexpr size_t kForks = 3;
  constexpr sim::Cycle kWarm = 512;

  const auto diverge = [](size_t index, platform::ReferenceBoard& board) {
    // A nonzero poke into an otherwise untouched page: architectural
    // state, so it must show up in the digest.
    board.core(0).memory().write(
        0x000F'F000u, 0xD1000000u + static_cast<uint32_t>(index + 1), 4);
  };

  fleet::Driver driver(fleetConfig(images, kForks));
  const fleet::FleetResult first =
      driver.runForked(images.ptrs(), kWarm, diverge);
  const fleet::FleetResult second =
      driver.runForked(images.ptrs(), kWarm, diverge);
  const fleet::FleetResult baseline =
      driver.runForked(images.ptrs(), kWarm, nullptr);

  ASSERT_EQ(first.boards.size(), kForks);
  for (size_t i = 0; i < kForks; ++i) {
    EXPECT_NE(first.boards[i].digest, baseline.boards[i].digest)
        << "fork " << i << " ignored the divergence hook";
    EXPECT_EQ(first.boards[i].digest, second.boards[i].digest)
        << "fork " << i << " is not reproducible";
    for (size_t j = i + 1; j < kForks; ++j) {
      EXPECT_NE(first.boards[i].digest, first.boards[j].digest)
          << "forks " << i << " and " << j << " collided";
    }
  }
}

// The artifact cache itself: same image + config shares, different
// config (extra leaders) decodes separately, and clear() forgets.
TEST(Fleet, ArtifactCacheHitAndMissAccounting) {
  const auto images = workloads::BoardImages::family(1);
  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  auto& cache = core::ProgramArtifactCache::instance();
  cache.clear();

  const auto a1 = cache.acquire(desc, images.image(0), images.extraLeaders());
  EXPECT_EQ(cache.stats().decodes, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const auto a2 = cache.acquire(desc, images.image(0), images.extraLeaders());
  EXPECT_EQ(a1.get(), a2.get());
  EXPECT_EQ(cache.stats().decodes, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // A different leader set is a different lowering — distinct artifact.
  std::vector<uint32_t> other_leaders = images.extraLeaders();
  other_leaders.push_back(images.image(0).entry);
  const auto a3 = cache.acquire(desc, images.image(0), other_leaders);
  EXPECT_NE(a1.get(), a3.get());
  EXPECT_EQ(cache.stats().decodes, 2u);

  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().decodes, 0u);
}

// Fleet metrics land in the registry under the fleet.* namespace, with
// the exemplar board folded under fleet.board0.* via merge().
TEST(Fleet, PublishesMetrics) {
  const auto images = workloads::BoardImages::family(1);
  fleet::Driver driver(fleetConfig(images, 2));
  const fleet::FleetResult result = driver.run(images.ptrs());

  obs::MetricsRegistry reg;
  result.publishMetrics(reg);
  EXPECT_EQ(reg.counterOr("fleet.boards"), 2u);
  EXPECT_GT(reg.counterOr("fleet.instructions"), 0u);
  EXPECT_GT(reg.gaugeOr("fleet.boards_per_sec"), 0.0);
  EXPECT_GT(reg.gaugeOr("fleet.aggregate_mips"), 0.0);
  const obs::Histogram* h = reg.histogram("fleet.board_instructions");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  // The exemplar board's own counters surfaced under board0.
  EXPECT_GT(reg.counterOr("fleet.board0.core0.iss.instructions"), 0u);
}

}  // namespace
}  // namespace cabt
