// Byte-stream serialization for the snapshot subsystem (src/snap).
//
// Deliberately minimal: little-endian fixed-width integers, length-
// prefixed strings and raw byte runs, over a growable byte vector. Every
// state-bearing layer (SparseMemory, PipelineTimer, ICacheState, the SoC
// devices, sim::Kernel, iss::Iss) writes its state through a Writer and
// reads it back through a Reader, so the platform snapshot format
// (DESIGN.md section 9) is the concatenation of per-layer sections and
// each layer owns its own field order. Readers throw cabt::Error on
// underrun or tag mismatch — a truncated or mismatched snapshot must
// never restore silently.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace cabt::serial {

class Writer {
 public:
  void u8(uint8_t v) { out_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u16(uint16_t v) { le<2>(v); }
  void u32(uint32_t v) { le<4>(v); }
  void u64(uint64_t v) { le<8>(v); }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }

  void bytes(const void* p, size_t n) {
    if (n == 0) {
      return;
    }
    const size_t old = out_.size();
    out_.resize(old + n);
    std::memcpy(out_.data() + old, p, n);
  }

  /// Length-prefixed string (section names, device names).
  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

  /// Section tag: a short marker the matching Reader::tag verifies, so a
  /// layer that drifts out of sync fails at the boundary, not 200 bytes
  /// later with garbage values.
  void tag(std::string_view t) { str(t); }

  [[nodiscard]] const std::vector<uint8_t>& data() const { return out_; }
  [[nodiscard]] size_t size() const { return out_.size(); }
  std::vector<uint8_t> take() { return std::move(out_); }

 private:
  /// Appends the low N bytes of `v`, least significant first: one
  /// capacity check and one resize, not N push_backs. Capacity doubles,
  /// as push_back's growth would.
  template <size_t N>
  void le(uint64_t v) {
    const size_t old = out_.size();
    if (out_.capacity() - old < N) {
      out_.reserve(std::max(2 * out_.capacity(), old + N));
    }
    out_.resize(old + N);
    uint8_t* p = out_.data() + old;
    for (size_t i = 0; i < N; ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  std::vector<uint8_t> out_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& data)
      : Reader(data.data(), data.size()) {}

  uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  bool b() { return u8() != 0; }
  uint16_t u16() {
    const uint16_t lo = u8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(u8()) << 8));
  }
  uint32_t u32() {
    const uint32_t lo = u16();
    return lo | (static_cast<uint32_t>(u16()) << 16);
  }
  uint64_t u64() {
    const uint64_t lo = u32();
    return lo | (static_cast<uint64_t>(u32()) << 32);
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }

  void bytes(void* p, size_t n) {
    need(n);
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  std::string str() {
    const uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// Reads a u32 element count and rejects one whose `elem_bytes`-sized
  /// elements could not fit in the remaining input, so a corrupt count
  /// fails here instead of sizing an allocation.
  size_t count(size_t elem_bytes) {
    const uint32_t n = u32();
    CABT_CHECK(n <= remaining() / elem_bytes,
               "snapshot count " << n << " of " << elem_bytes
                                 << "-byte elements exceeds the "
                                 << remaining() << " bytes left");
    return n;
  }

  /// Verifies the next section tag; throws on mismatch.
  void tag(std::string_view want) {
    const std::string got = str();
    CABT_CHECK(got == want, "snapshot section mismatch: expected '"
                                << std::string(want) << "', found '" << got
                                << "'");
  }

  [[nodiscard]] size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] size_t pos() const { return pos_; }

 private:
  void need(size_t n) const {
    CABT_CHECK(size_ - pos_ >= n,
               "snapshot truncated: need " << n << " bytes at offset "
                                           << pos_ << " of " << size_);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x00000100000001b3ull;
/// kFnvPrime^8 (mod 2^64): folding a zero byte is `h *= kFnvPrime` (the
/// xor is a no-op), so eight zero bytes fold as one multiply by this.
inline constexpr uint64_t kFnvPrime8 = [] {
  uint64_t p = 1;
  for (int i = 0; i < 8; ++i) {
    p *= kFnvPrime;
  }
  return p;
}();

/// 64-bit FNV-1a over a byte run; the snapshot integrity footer, the
/// artifact cache keys and the rolling state digest (snap::digest) all
/// use it. Chainable via `seed`. All-zero 8-byte words fold in one
/// multiply, bit-identical to the byte loop; the rest goes byte by byte.
inline uint64_t fnv1a(const uint8_t* data, size_t size,
                      uint64_t seed = kFnvOffset) {
  uint64_t h = seed;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    if (word == 0) {
      h *= kFnvPrime8;
      continue;
    }
    for (size_t j = i; j < i + 8; ++j) {
      h ^= data[j];
      h *= kFnvPrime;
    }
  }
  for (; i < size; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t fnv1a(const std::vector<uint8_t>& data,
                      uint64_t seed = kFnvOffset) {
  return fnv1a(data.data(), data.size(), seed);
}

}  // namespace cabt::serial
