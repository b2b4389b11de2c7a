// Hashed edge-coverage bitmap over core::BlockGraph control flow — the
// coverage signal of the differential fuzzing farm (src/fuzz/,
// DESIGN.md section 13).
//
// An edge is an observed (from-block-leader, to-block-leader) transfer,
// recorded by the ISS at its block-boundary observability epoch — the
// same epoch that polls the PC sampler and the fault injector, so
// collection follows the observer determinism rule of section 11:
// strictly read-only, one null test per boundary when detached, and
// identical architectural state, IssStats, digests and bus traffic with
// coverage on or off (pinned by tests/fuzz_test.cpp).
//
// Edges are hashed AFL-style into a fixed bitmap rather than stored
// exactly: the fuzzer only needs a monotone "did this input light any
// bit we have never seen" signal, and a bitmap makes the corpus
// accumulator a word-wise OR. Collisions lose a little signal, never
// soundness. The map is sized so the random-program space of this
// repository (a few hundred blocks per image) stays far below
// saturation.
//
// One EdgeCoverage instance belongs to one core, like obs::PcSampler.
#pragma once

#include <cstdint>
#include <vector>

namespace cabt::core {

class EdgeCoverage {
 public:
  /// Bitmap size in bits (power of two; the hash masks into this).
  static constexpr uint32_t kBits = 1u << 16;

  EdgeCoverage() : bits_(kBits / 64, 0) {}

  /// Folds one observed control transfer into the map.
  void recordEdge(uint32_t from, uint32_t to) {
    const uint32_t i = edgeIndex(from, to);
    bits_[i >> 6] |= 1ull << (i & 63);
  }

  /// Number of distinct map bits set (the "coverage_bits" metric).
  [[nodiscard]] uint64_t bitsSet() const {
    uint64_t n = 0;
    for (const uint64_t w : bits_) {
      n += static_cast<uint64_t>(__builtin_popcountll(w));
    }
    return n;
  }

  /// Bits set in `other` that this map has never seen — the corpus
  /// admission test ("does this mutant reach anything new").
  [[nodiscard]] uint64_t newBits(const EdgeCoverage& other) const {
    uint64_t n = 0;
    for (size_t i = 0; i < bits_.size(); ++i) {
      n += static_cast<uint64_t>(__builtin_popcountll(other.bits_[i] &
                                                      ~bits_[i]));
    }
    return n;
  }

  /// ORs `other` into this map; returns how many bits were new.
  uint64_t merge(const EdgeCoverage& other) {
    uint64_t added = 0;
    for (size_t i = 0; i < bits_.size(); ++i) {
      const uint64_t fresh = other.bits_[i] & ~bits_[i];
      added += static_cast<uint64_t>(__builtin_popcountll(fresh));
      bits_[i] |= other.bits_[i];
    }
    return added;
  }

  void clear() { bits_.assign(bits_.size(), 0); }

  [[nodiscard]] const std::vector<uint64_t>& words() const { return bits_; }

  /// The hash: mixes both leader addresses so that (a,b) and (b,a) land
  /// apart and straight-line address deltas do not cluster.
  [[nodiscard]] static uint32_t edgeIndex(uint32_t from, uint32_t to) {
    uint32_t h = from * 0x9e3779b1u;
    h ^= (to + 0x165667b1u) * 0x85ebca77u;
    h ^= h >> 15;
    h *= 0xc2b2ae35u;
    h ^= h >> 13;
    return h & (kBits - 1);
  }

 private:
  std::vector<uint64_t> bits_;
};

}  // namespace cabt::core
