#include "core/program_artifact.h"

#include <algorithm>

#include "common/serial.h"

namespace cabt::core {

namespace {

/// Content fingerprint of the decoded program: instruction words plus
/// leaders, exactly as the snapshot layer has always computed it (a
/// snapshot must never restore into a board running a different
/// program). Moved here from iss.cpp so artifact and snapshots agree by
/// construction.
uint64_t computeFingerprint(const BlockGraph& graph) {
  serial::Writer w;
  for (const trc::Instr& in : graph.instrs()) {
    w.u32(in.addr);
    w.u8(static_cast<uint8_t>(in.opc));
    w.u8(in.rd);
    w.u8(in.ra);
    w.u8(in.rb);
    w.i32(in.imm);
    w.u8(in.size);
  }
  for (const uint32_t leader : graph.leaders()) {
    w.u32(leader);
  }
  return serial::fnv1a(w.data());
}

/// Identity of the image content: everything the artifact reads from
/// the object (code and data bytes, layout, entry, symbols — the symbol
/// index is part of the artifact).
uint64_t imageKey(const elf::Object& object) {
  serial::Writer w;
  w.u8(static_cast<uint8_t>(object.machine));
  w.u32(object.entry);
  for (const elf::Section& s : object.sections) {
    w.str(s.name);
    w.u8(static_cast<uint8_t>(s.kind));
    w.u32(s.addr);
    w.u32(s.align);
    w.b(s.writable);
    w.b(s.executable);
    w.u32(s.mem_size);
    w.u32(static_cast<uint32_t>(s.data.size()));
    w.bytes(s.data.data(), s.data.size());
  }
  for (const elf::Symbol& s : object.symbols) {
    w.str(s.name);
    w.u32(s.value);
    w.i32(s.section);
    w.u8(static_cast<uint8_t>(s.binding));
  }
  return serial::fnv1a(w.data());
}

/// Identity of the timing configuration the artifact bakes in: the
/// pipeline schedule (issue schedules), the branch model (static cycles
/// and the per-core lowering tables), the icache geometry (CABs) and
/// the extra leaders (block partition). Architecture fields the
/// artifact never reads (clock rate, dcache, memory map) are deliberately
/// excluded so boards differing only there still share one decode.
uint64_t configKey(const arch::ArchDescription& desc,
                   const std::vector<uint32_t>& extra_leaders) {
  serial::Writer w;
  w.b(desc.pipeline.dual_issue);
  w.u32(desc.pipeline.alu_latency);
  w.u32(desc.pipeline.mul_latency);
  w.u32(desc.pipeline.load_latency);
  w.u32(desc.branch.taken_predicted_extra);
  w.u32(desc.branch.mispredict_extra);
  w.u32(desc.branch.indirect_extra);
  w.b(desc.icache.enabled);
  w.u32(desc.icache.sets);
  w.u32(desc.icache.ways);
  w.u32(desc.icache.line_bytes);
  w.u32(desc.icache.miss_penalty);
  std::vector<uint32_t> leaders = extra_leaders;
  std::sort(leaders.begin(), leaders.end());
  leaders.erase(std::unique(leaders.begin(), leaders.end()), leaders.end());
  for (const uint32_t leader : leaders) {
    w.u32(leader);
  }
  return serial::fnv1a(w.data());
}

}  // namespace

ProgramArtifact::ProgramArtifact(const arch::ArchDescription& desc,
                                 const elf::Object& object,
                                 const std::vector<uint32_t>& extra_leaders)
    : graph_(BlockGraph::build(desc, object, extra_leaders)),
      symbols_(object),
      branch_(desc.branch) {
  const std::vector<trc::Instr>& instrs = graph_.instrs();
  instr_by_addr_.reserve(instrs.size());
  for (size_t i = 0; i < instrs.size(); ++i) {
    instr_by_addr_.emplace(instrs[i].addr, static_cast<uint32_t>(i));
  }
  fingerprint_ = computeFingerprint(graph_);
}

ProgramArtifactCache& ProgramArtifactCache::instance() {
  static ProgramArtifactCache cache;
  return cache;
}

std::shared_ptr<const ProgramArtifact> ProgramArtifactCache::acquire(
    const arch::ArchDescription& desc, const elf::Object& object,
    const std::vector<uint32_t>& extra_leaders) {
  const Key key{imageKey(object), configKey(desc, extra_leaders)};
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (std::shared_ptr<const ProgramArtifact> live = it->second.lock()) {
      ++stats_.hits;
      return live;
    }
  }
  // Miss (or expired): decode under the lock, so N boards racing to
  // start on the same image still pay exactly one decode. Construction
  // is pure CPU work on immutable inputs; holding the mutex across it
  // trades a little startup parallelism for the decode-once guarantee.
  ++stats_.decodes;
  auto artifact =
      std::make_shared<const ProgramArtifact>(desc, object, extra_leaders);
  entries_[key] = artifact;
  // Opportunistic prune: drop entries whose artifact died (all users
  // gone), so a long fuzzing campaign's key set does not grow without
  // bound.
  for (auto e = entries_.begin(); e != entries_.end();) {
    e = e->second.expired() ? entries_.erase(e) : std::next(e);
  }
  return artifact;
}

std::vector<std::shared_ptr<const ProgramArtifact>> ProgramArtifactCache::pin(
    const arch::ArchDescription& desc,
    const std::vector<const elf::Object*>& images,
    const std::vector<uint32_t>& extra_leaders) {
  std::vector<std::shared_ptr<const ProgramArtifact>> pinned;
  pinned.reserve(images.size());
  for (const elf::Object* image : images) {
    pinned.push_back(acquire(desc, *image, extra_leaders));
  }
  return pinned;
}

ProgramArtifactCache::Stats ProgramArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ProgramArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (const auto& [key, weak] : entries_) {
    live += weak.expired() ? 0 : 1;
  }
  return live;
}

void ProgramArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  stats_ = Stats{};
}

}  // namespace cabt::core
