// Memory-map description shared by the architecture description, the
// address analysis in the translator, and the simulated platforms.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"

namespace cabt {

/// What a region of the address space contains, as seen by the translator.
enum class RegionKind {
  kRom,  ///< code / constant data; never remapped at runtime
  kRam,  ///< read-write memory; may be remapped to the target address space
  kIo,   ///< memory-mapped peripherals; accesses become SoC-bus transactions
};

/// One contiguous region of the address space.
struct MemRegion {
  std::string name;
  uint32_t base = 0;
  uint32_t size = 0;
  RegionKind kind = RegionKind::kRam;
  /// Base of this region in the target address space (remap destination).
  /// Equal to `base` when the region is not remapped.
  uint32_t remap_base = 0;

  [[nodiscard]] bool contains(uint32_t addr) const {
    return addr >= base && addr - base < size;
  }
  /// Translates a source address inside this region to the target space.
  [[nodiscard]] uint32_t remap(uint32_t addr) const {
    CABT_ASSERT(contains(addr), "remap of address outside region " << name);
    return remap_base + (addr - base);
  }
};

/// An ordered collection of non-overlapping memory regions.
class MemoryMap {
 public:
  void addRegion(MemRegion region) {
    CABT_CHECK(region.size > 0, "region '" << region.name << "' is empty");
    CABT_CHECK(uint64_t{region.base} + region.size <= (uint64_t{1} << 32),
               "region '" << region.name << "' wraps past 0xffffffff");
    for (const MemRegion& r : regions_) {
      const bool disjoint = region.base + (region.size - 1) < r.base ||
                            r.base + (r.size - 1) < region.base;
      CABT_CHECK(disjoint, "region '" << region.name << "' overlaps '"
                                      << r.name << "'");
    }
    regions_.push_back(std::move(region));
  }

  [[nodiscard]] const std::vector<MemRegion>& regions() const {
    return regions_;
  }

  /// Region containing `addr`, or nullptr.
  [[nodiscard]] const MemRegion* find(uint32_t addr) const {
    for (const MemRegion& r : regions_) {
      if (r.contains(addr)) {
        return &r;
      }
    }
    return nullptr;
  }

  /// Region by name, or nullptr.
  [[nodiscard]] const MemRegion* findNamed(std::string_view name) const {
    for (const MemRegion& r : regions_) {
      if (r.name == name) {
        return &r;
      }
    }
    return nullptr;
  }

  /// Kind of the region containing `addr`; kRam when unmapped (the
  /// translator's documented fallback for statically unknown bases).
  [[nodiscard]] RegionKind kindOf(uint32_t addr) const {
    const MemRegion* r = find(addr);
    return r != nullptr ? r->kind : RegionKind::kRam;
  }

 private:
  std::vector<MemRegion> regions_;
};

}  // namespace cabt
