// Static MRU-hit analysis over the block graph (DESIGN.md section 2.4;
// an extension beyond the paper).
//
// A forward must-analysis in the style of Ferdinand and Wilhelm
// (Real-Time Systems 17, 1999), restricted to one fact per set: the line
// that is the most recently used (MRU) one on every path. A cache
// analysis block whose line is already MRU in its set hits, and the hit
// leaves every tag and LRU word as it was and adds no correction cycle.
// The translated code can skip that lookup and stay cycle-exact.
#include "common/error.h"
#include "xlat/internal.h"

namespace cabt::xlat {
namespace {

/// Per set, the tag word known to be MRU on every path so far, or
/// kUnknown. Tag words carry the valid bit, so no line has tag word 0.
/// An empty state belongs to a block that no path has reached yet.
using MruState = std::vector<uint32_t>;
constexpr uint32_t kUnknown = 0;

/// dst <- dst meet src: a set keeps its MRU line only where both agree.
/// Returns true when dst changed.
bool meetInto(MruState& dst, const MruState& src) {
  if (dst.empty()) {
    dst = src;
    return true;
  }
  bool changed = false;
  for (size_t set = 0; set < dst.size(); ++set) {
    if (dst[set] != src[set] && dst[set] != kUnknown) {
      dst[set] = kUnknown;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

uint64_t elideMruHits(const arch::ICacheModel& icache,
                      const core::BlockGraph& graph,
                      std::vector<SourceBlock>& blocks) {
  const std::vector<core::Block>& nodes = graph.blocks();
  CABT_CHECK(nodes.size() == blocks.size(),
             "MRU analysis needs one source block per graph block");
  const int32_t entry = graph.indexAt(graph.entry());
  CABT_CHECK(entry >= 0, "entry point is not a block leader");

  // Every lookup, hit or miss, leaves its line MRU in its set.
  const auto transfer = [&graph](MruState& state, const core::Block& b) {
    for (const core::CacheAnalysisBlock& cab : graph.cabs(b)) {
      state[cab.set] = cab.tag_word;
    }
  };

  // In-states to a fixpoint. Edges are the graph's direct ones; nothing
  // leaves a HALT. An indirect jump (ji, ret16) dispatches through a
  // table covering every leader, so the meet of all indirect jumps'
  // out-states flows into every block.
  std::vector<MruState> in(nodes.size());
  in[static_cast<size_t>(entry)].assign(icache.sets, kUnknown);
  MruState indirect;
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const trc::Instr& last = graph.last(nodes[i]);
      if (in[i].empty() || last.opc == trc::Opc::kHalt) {
        continue;
      }
      MruState out = in[i];
      transfer(out, nodes[i]);
      for (const int32_t succ : {nodes[i].target, nodes[i].fall_through}) {
        if (succ >= 0) {
          changed |= meetInto(in[static_cast<size_t>(succ)], out);
        }
      }
      if (last.cls() == arch::OpClass::kBranchInd) {
        changed |= meetInto(indirect, out);
      }
    }
    if (!indirect.empty()) {
      for (MruState& state : in) {
        changed |= meetInto(state, indirect);
      }
    }
  }

  // Drop the proven hits. A block no path reaches keeps every lookup.
  uint64_t elided = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    MruState& state = in[i];
    if (state.empty()) {
      continue;
    }
    std::vector<core::CacheAnalysisBlock>& lookups = blocks[i].lookups;
    size_t kept = 0;
    for (size_t k = 0; k < lookups.size(); ++k) {
      uint32_t& mru = state[lookups[k].set];
      if (mru == lookups[k].tag_word) {
        ++elided;
        continue;
      }
      mru = lookups[k].tag_word;
      lookups[kept++] = lookups[k];
    }
    lookups.resize(kept);
  }
  return elided;
}

}  // namespace cabt::xlat
