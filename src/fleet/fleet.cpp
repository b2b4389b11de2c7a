#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "sim/host_pool.h"
#include "snap/snapshot.h"

namespace cabt::fleet {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

core::ProgramArtifactCache::Stats statsDelta(
    const core::ProgramArtifactCache::Stats& before) {
  const auto after = core::ProgramArtifactCache::instance().stats();
  return {after.hits - before.hits, after.decodes - before.decodes};
}

}  // namespace

uint64_t FleetResult::totalInstructions() const {
  uint64_t total = 0;
  for (const BoardResult& b : boards) {
    total += b.instructions;
  }
  return total;
}

double FleetResult::boardsPerSec() const {
  return host_seconds > 0.0
             ? static_cast<double>(boards.size()) / host_seconds
             : 0.0;
}

double FleetResult::aggregateMips() const {
  return host_seconds > 0.0
             ? static_cast<double>(totalInstructions()) / host_seconds / 1e6
             : 0.0;
}

bool FleetResult::digestsAgree() const {
  for (const BoardResult& b : boards) {
    if (b.digest != boards.front().digest) {
      return false;
    }
  }
  return true;
}

void FleetResult::publishMetrics(obs::MetricsRegistry& reg,
                                 const std::string& prefix) const {
  reg.setCounter(prefix + "boards", boards.size());
  reg.setCounter(prefix + "instructions", totalInstructions());
  reg.setCounter(prefix + "artifact_decodes", artifact.decodes);
  reg.setCounter(prefix + "artifact_hits", artifact.hits);
  reg.setGauge(prefix + "host_parallelism", host_parallelism);
  reg.setGauge(prefix + "host_seconds", host_seconds);
  reg.setGauge(prefix + "boards_per_sec", boardsPerSec());
  reg.setGauge(prefix + "aggregate_mips", aggregateMips());
  for (const BoardResult& b : boards) {
    reg.observe(prefix + "board_instructions", b.instructions);
  }
  reg.merge(exemplar, prefix + "board0.");
}

Driver::Driver(FleetConfig config) : config_(std::move(config)) {}

FleetResult Driver::run(const std::vector<const elf::Object*>& images) {
  const auto before = core::ProgramArtifactCache::instance().stats();
  FleetResult result;
  const size_t m = config_.boards;
  result.boards.resize(m);

  // Pin one artifact per image for the whole run: with one host thread
  // each board is destroyed before the next one is built, which would
  // let the weak cache entries expire and force a re-decode per board.
  // Pinned, the fleet pays exactly one decode per distinct image.
  const auto pinned = core::ProgramArtifactCache::instance().pin(
      config_.desc, images, config_.board.iss.extra_leaders);

  unsigned parallelism = config_.host_threads != 0
                             ? config_.host_threads
                             : std::thread::hardware_concurrency();
  parallelism = std::clamp(parallelism, 1u, 16u);
  result.host_parallelism = parallelism;
  sim::HostPool pool(parallelism - 1);  // the calling thread participates

  const auto t0 = Clock::now();
  pool.runAll(m, [this, &images, &result](size_t index) {
    const auto board_t0 = Clock::now();
    platform::ReferenceBoard board(config_.desc, images, config_.board);
    BoardResult& r = result.boards[index];
    r.stop = board.run();
    r.digest = snap::digest(board);
    r.instructions = board.instructionsRetired();
    r.soc_cycles = board.board().bus.socCycle();
    r.host_seconds = secondsSince(board_t0);
    if (index == 0) {
      board.publishMetrics(result.exemplar, "");
    }
    if (config_.inspect) {
      config_.inspect(index, board);
    }
  });
  result.host_seconds = secondsSince(t0);
  result.artifact = statsDelta(before);
  return result;
}

}  // namespace cabt::fleet
