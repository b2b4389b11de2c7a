// Sparse little-endian byte-addressable memory for the simulators.
// Backed by 4 KiB pages allocated on first touch; untouched memory reads
// as zero. Used for the 32-bit address spaces of both processors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/serial.h"
#include "common/strutil.h"

namespace cabt {

class SparseMemory {
 public:
  static constexpr uint32_t kPageBits = 12;
  static constexpr uint32_t kPageSize = 1u << kPageBits;

  [[nodiscard]] uint8_t read8(uint32_t addr) const {
    const Page* p = findPage(addr);
    return p == nullptr ? 0 : (*p)[addr & (kPageSize - 1)];
  }
  void write8(uint32_t addr, uint8_t v) {
    page(addr)[addr & (kPageSize - 1)] = v;
  }

  /// Little-endian access of `size` (1..4) bytes. An access inside one
  /// page costs one page lookup; one that straddles a page boundary (or
  /// wraps the address space) goes byte by byte.
  [[nodiscard]] uint32_t read(uint32_t addr, unsigned size) const {
    uint32_t v = 0;
    if (inOnePage(addr, size)) {
      const Page* p = findPage(addr);
      if (p != nullptr) {
        const uint8_t* b = p->data() + (addr & (kPageSize - 1));
        for (unsigned i = 0; i < size; ++i) {
          v |= static_cast<uint32_t>(b[i]) << (8 * i);
        }
      }
      return v;
    }
    for (unsigned i = 0; i < size; ++i) {
      v |= static_cast<uint32_t>(read8(addr + i)) << (8 * i);
    }
    return v;
  }
  void write(uint32_t addr, uint32_t v, unsigned size) {
    if (inOnePage(addr, size)) {
      uint8_t* b = page(addr).data() + (addr & (kPageSize - 1));
      for (unsigned i = 0; i < size; ++i) {
        b[i] = static_cast<uint8_t>(v >> (8 * i));
      }
      return;
    }
    for (unsigned i = 0; i < size; ++i) {
      write8(addr + i, static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  [[nodiscard]] uint16_t read16(uint32_t addr) const {
    return static_cast<uint16_t>(read(addr, 2));
  }
  [[nodiscard]] uint32_t read32(uint32_t addr) const { return read(addr, 4); }
  void write16(uint32_t addr, uint16_t v) { write(addr, v, 2); }
  void write32(uint32_t addr, uint32_t v) { write(addr, v, 4); }

  /// Writes `size` bytes from `data` at `addr`, one page lookup per page
  /// touched. The address wraps at 2^32, as byte-by-byte writes would.
  void writeBlock(uint32_t addr, const uint8_t* data, size_t size) {
    while (size > 0) {
      const uint32_t offset = addr & (kPageSize - 1);
      const size_t n = std::min<size_t>(size, kPageSize - offset);
      std::memcpy(page(addr).data() + offset, data, n);
      addr += static_cast<uint32_t>(n);
      data += n;
      size -= n;
    }
  }

  /// Addresses of all touched pages (for state-comparison in tests).
  [[nodiscard]] std::vector<uint32_t> touchedPages() const {
    std::vector<uint32_t> out;
    out.reserve(pages_.size());
    for (const auto& [base, page] : pages_) {
      out.push_back(base);
    }
    return out;
  }

  /// Compares the full contents of two memories (zero-extended, so a page
  /// touched with only zeros equals an untouched page).
  [[nodiscard]] bool contentEquals(const SparseMemory& other) const {
    return this->coveredBy(other) && other.coveredBy(*this);
  }

  /// Drops every page (all addresses read as zero again).
  void clear() { pages_.clear(); }

  // -- snapshot support (src/snap, DESIGN.md section 9) -----------------

  /// Serializes every touched page. Pages iterate in address order
  /// (std::map), so the byte stream is canonical for a given page set.
  void saveState(serial::Writer& w) const {
    w.tag("mem");
    w.u32(static_cast<uint32_t>(pages_.size()));
    for (const auto& [base, page] : pages_) {
      w.u32(base);
      w.bytes(page.data(), page.size());
    }
  }

  /// Replaces the full contents with a saved image. The page bases must
  /// be page-aligned and strictly increasing, as saveState writes them.
  void restoreState(serial::Reader& r) {
    r.tag("mem");
    pages_.clear();
    const uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t base = r.u32();
      CABT_CHECK((base & (kPageSize - 1)) == 0,
                 "snapshot memory page base " << hex32(base)
                                              << " is not page-aligned");
      CABT_CHECK(pages_.empty() || base > pages_.rbegin()->first,
                 "snapshot memory page base "
                     << hex32(base) << " does not follow the previous page");
      Page page(kPageSize, 0);
      r.bytes(page.data(), page.size());
      pages_.emplace_hint(pages_.end(), base, std::move(page));
    }
  }

  /// Folds the canonical *content* image into the running FNV-1a hash
  /// `h` of the rolling state digest, in place: every page holding a
  /// non-zero byte, in address order, contributes its base (u32, little
  /// endian) and then its bytes. All-zero pages contribute nothing, so a
  /// page touched with only zeros digests identically to an untouched
  /// page (the same equivalence contentEquals uses): two memories with
  /// equal contents always hash alike, whatever their allocation
  /// history. The result equals serial::fnv1a over those bytes written
  /// out in that order.
  [[nodiscard]] uint64_t hashCanonical(uint64_t h) const {
    for (const auto& [base, page] : pages_) {
      if (allZero(page)) {
        continue;
      }
      const uint8_t le_base[4] = {
          static_cast<uint8_t>(base), static_cast<uint8_t>(base >> 8),
          static_cast<uint8_t>(base >> 16), static_cast<uint8_t>(base >> 24)};
      h = serial::fnv1a(le_base, sizeof le_base, h);
      h = serial::fnv1a(page.data(), page.size(), h);
    }
    return h;
  }

 private:
  using Page = std::vector<uint8_t>;

  [[nodiscard]] bool coveredBy(const SparseMemory& other) const {
    for (const auto& [base, page] : pages_) {
      for (uint32_t i = 0; i < kPageSize; ++i) {
        if (page[i] != other.read8(base + i)) {
          return false;
        }
      }
    }
    return true;
  }

  /// True when every byte of `page` is zero, tested a word at a time.
  [[nodiscard]] static bool allZero(const Page& page) {
    for (size_t i = 0; i < kPageSize; i += sizeof(uint64_t)) {
      uint64_t word = 0;
      std::memcpy(&word, page.data() + i, sizeof word);
      if (word != 0) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] static bool inOnePage(uint32_t addr, unsigned size) {
    return (addr & (kPageSize - 1)) + size <= kPageSize;
  }

  [[nodiscard]] const Page* findPage(uint32_t addr) const {
    const auto it = pages_.find(addr >> kPageBits << kPageBits);
    return it == pages_.end() ? nullptr : &it->second;
  }

  Page& page(uint32_t addr) {
    const uint32_t base = addr >> kPageBits << kPageBits;
    const auto it = pages_.find(base);
    return it != pages_.end() ? it->second : newPage(base);
  }

  /// A page's first touch, out of line: the write paths that inline
  /// page() (the ISS's and the V6X simulator's stores) carry no 4 KiB
  /// clear of their own.
  [[gnu::noinline]] Page& newPage(uint32_t base) {
    return pages_.emplace(base, Page(kPageSize, 0)).first->second;
  }

  std::map<uint32_t, Page> pages_;
};

}  // namespace cabt
