// Unit tests for the common utilities: bits, strings, XML parser,
// memory map, sparse memory, FNV-1a.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string_view>
#include <vector>

#include "common/bits.h"
#include "common/error.h"
#include "common/memmap.h"
#include "common/serial.h"
#include "common/sparse_mem.h"
#include "common/strutil.h"
#include "common/xml.h"

namespace cabt {
namespace {

TEST(Bits, BitFieldExtractsRanges) {
  EXPECT_EQ(bitField(0xdeadbeef, 0, 8), 0xefu);
  EXPECT_EQ(bitField(0xdeadbeef, 8, 8), 0xbeu);
  EXPECT_EQ(bitField(0xdeadbeef, 28, 4), 0xdu);
  EXPECT_EQ(bitField(0xffffffff, 0, 32), 0xffffffffu);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(signExtend(0x7f, 8), 127);
  EXPECT_EQ(signExtend(0x80, 8), -128);
  EXPECT_EQ(signExtend(0xff, 8), -1);
  EXPECT_EQ(signExtend(0xffff, 16), -1);
  EXPECT_EQ(signExtend(0x8000, 16), -32768);
  EXPECT_EQ(signExtend(0x0, 16), 0);
}

TEST(Bits, FitsSignedAndUnsigned) {
  EXPECT_TRUE(fitsSigned(127, 8));
  EXPECT_FALSE(fitsSigned(128, 8));
  EXPECT_TRUE(fitsSigned(-128, 8));
  EXPECT_FALSE(fitsSigned(-129, 8));
  EXPECT_TRUE(fitsUnsigned(255, 8));
  EXPECT_FALSE(fitsUnsigned(256, 8));
}

TEST(Bits, InsertFieldRoundTrips) {
  uint32_t w = 0;
  w = insertField(w, 4, 8, 0xab);
  EXPECT_EQ(bitField(w, 4, 8), 0xabu);
  w = insertField(w, 4, 8, 0x12);
  EXPECT_EQ(bitField(w, 4, 8), 0x12u);
  EXPECT_EQ(bitField(w, 0, 4), 0u);
}

TEST(Bits, PowerOfTwoHelpers) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(64));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(48));
  EXPECT_EQ(log2Exact(64), 6u);
  EXPECT_EQ(alignUp(13, 8), 16u);
  EXPECT_EQ(alignUp(16, 8), 16u);
}

TEST(StrUtil, TrimAndSplit) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtil, SplitOperandsHonoursBrackets) {
  const auto ops = splitOperands("d1, [a0]8, d2");
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[1], "[a0]8");
}

TEST(StrUtil, ParseIntFormats) {
  EXPECT_EQ(parseInt("42"), 42);
  EXPECT_EQ(parseInt("-17"), -17);
  EXPECT_EQ(parseInt("0x10"), 16);
  EXPECT_EQ(parseInt("0b101"), 5);
  EXPECT_EQ(parseInt("0xffffffff"), 0xffffffffLL);
  EXPECT_THROW(parseInt("zz"), Error);
  EXPECT_THROW(parseInt(""), Error);
}

TEST(StrUtil, Identifier) {
  EXPECT_TRUE(isIdentifier("_start"));
  EXPECT_TRUE(isIdentifier("loop2"));
  EXPECT_FALSE(isIdentifier("2loop"));
  EXPECT_FALSE(isIdentifier(""));
  EXPECT_FALSE(isIdentifier("a b"));
}

TEST(Xml, ParsesElementsAttributesText) {
  const auto root = xml::parse(R"(<?xml version="1.0"?>
<!-- comment -->
<processor name="trc32" clock_hz="48000000">
  <pipeline dual_issue="1"/>
  <note>hello &amp; goodbye</note>
</processor>)");
  EXPECT_EQ(root->name(), "processor");
  EXPECT_EQ(root->attr("name"), "trc32");
  EXPECT_EQ(root->intAttr("clock_hz"), 48000000);
  ASSERT_NE(root->child("pipeline"), nullptr);
  EXPECT_EQ(root->child("pipeline")->intAttr("dual_issue"), 1);
  ASSERT_NE(root->child("note"), nullptr);
  EXPECT_NE(root->child("note")->text().find("hello & goodbye"),
            std::string::npos);
}

TEST(Xml, RejectsMalformedDocuments) {
  EXPECT_THROW(xml::parse("<a><b></a>"), Error);
  EXPECT_THROW(xml::parse("<a attr=unquoted/>"), Error);
  EXPECT_THROW(xml::parse("<a/><b/>"), Error);
  EXPECT_THROW(xml::parse("no xml at all"), Error);
}

TEST(Xml, ChildrenNamedReturnsAllInOrder) {
  const auto root = xml::parse("<m><r n='1'/><x/><r n='2'/></m>");
  const auto rs = root->childrenNamed("r");
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(rs[0]->attr("n"), "1");
  EXPECT_EQ(rs[1]->attr("n"), "2");
}

TEST(MemMap, FindAndKind) {
  MemoryMap map;
  map.addRegion({"rom", 0x80000000, 0x1000, RegionKind::kRom, 0x80000000});
  map.addRegion({"io", 0xf0000000, 0x100, RegionKind::kIo, 0xf0000000});
  EXPECT_EQ(map.find(0x80000abc)->name, "rom");
  EXPECT_EQ(map.find(0x70000000), nullptr);
  EXPECT_EQ(map.kindOf(0xf0000010), RegionKind::kIo);
  EXPECT_EQ(map.kindOf(0x12345678), RegionKind::kRam);  // unmapped fallback
}

TEST(MemMap, RejectsOverlap) {
  MemoryMap map;
  map.addRegion({"a", 0x1000, 0x100, RegionKind::kRam, 0x1000});
  EXPECT_THROW(
      map.addRegion({"b", 0x10ff, 0x100, RegionKind::kRam, 0x10ff}),
      Error);
}

TEST(MemMap, RemapTranslatesAddresses) {
  MemRegion r{"ram", 0xd0000000, 0x1000, RegionKind::kRam, 0x00800000};
  EXPECT_EQ(r.remap(0xd0000010), 0x00800010u);
}

TEST(SparseMem, ReadsZeroWhenUntouched) {
  SparseMemory mem;
  EXPECT_EQ(mem.read32(0x12345678), 0u);
}

TEST(SparseMem, LittleEndianAccess) {
  SparseMemory mem;
  mem.write32(0x100, 0xdeadbeef);
  EXPECT_EQ(mem.read8(0x100), 0xef);
  EXPECT_EQ(mem.read8(0x103), 0xde);
  EXPECT_EQ(mem.read16(0x102), 0xdead);
}

TEST(SparseMem, CrossPageAccess) {
  SparseMemory mem;
  const uint32_t addr = SparseMemory::kPageSize - 2;
  mem.write32(addr, 0x11223344);
  EXPECT_EQ(mem.read32(addr), 0x11223344u);
}

TEST(SparseMem, ContentEqualsIgnoresZeroPages) {
  SparseMemory a;
  SparseMemory b;
  a.write32(0x5000, 0);  // touched but zero
  EXPECT_TRUE(a.contentEquals(b));
  b.write32(0x6000, 7);
  EXPECT_FALSE(a.contentEquals(b));
}

// writeBlock copies a page at a time; the bytes it leaves must be the
// ones byte-by-byte writes leave, across a page boundary and across the
// 2^32 wrap.
TEST(SparseMem, WriteBlockSpansPages) {
  std::vector<uint8_t> data(2 * SparseMemory::kPageSize + 100);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  for (const uint32_t addr : {SparseMemory::kPageSize - 3, 0xfffff000u - 9,
                              0xffffffffu - 40}) {
    SCOPED_TRACE(addr);
    SparseMemory block;
    SparseMemory bytes;
    block.writeBlock(addr, data.data(), data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      bytes.write8(addr + static_cast<uint32_t>(i), data[i]);
    }
    EXPECT_EQ(block.touchedPages(), bytes.touchedPages());
    EXPECT_TRUE(block.contentEquals(bytes));
    EXPECT_EQ(block.read8(addr), data.front());
    EXPECT_EQ(block.read8(addr + static_cast<uint32_t>(data.size() - 1)),
              data.back());
  }
}

// fnv1a folds all-zero 8-byte words with one multiply by kFnvPrime^8;
// every digest, snapshot footer and artifact key depends on that fast
// path equalling the plain byte loop, so it is checked against the
// published FNV-1a-64 vectors and against a byte loop written here.
TEST(Serial, Fnv1aMatchesTheByteLoop) {
  const auto fnv = [](std::string_view s) {
    return serial::fnv1a(reinterpret_cast<const uint8_t*>(s.data()),
                         s.size());
  };
  EXPECT_EQ(fnv(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv("foobar"), 0x85944171f73967e8ull);

  const auto byteLoop = [](const std::vector<uint8_t>& v, uint64_t h) {
    for (const uint8_t b : v) {
      h ^= b;
      h *= serial::kFnvPrime;
    }
    return h;
  };
  std::mt19937 rng(20);
  uint64_t chained = serial::kFnvOffset;
  for (size_t len = 0; len <= 80; ++len) {
    // Random bytes, then an all-zero word planted at every offset (and
    // the all-zero buffer), each hashed from a seed chained from the
    // previous result.
    std::vector<uint8_t> v(len);
    for (uint8_t& b : v) {
      b = static_cast<uint8_t>(rng() | 1);
    }
    std::vector<std::vector<uint8_t>> cases = {v, std::vector<uint8_t>(len)};
    for (size_t at = 0; at + 8 <= len; ++at) {
      std::vector<uint8_t> z = v;
      std::fill(z.begin() + static_cast<std::ptrdiff_t>(at),
                z.begin() + static_cast<std::ptrdiff_t>(at + 8), 0);
      cases.push_back(std::move(z));
    }
    for (const std::vector<uint8_t>& c : cases) {
      SCOPED_TRACE(len);
      const uint64_t want = byteLoop(c, chained);
      ASSERT_EQ(serial::fnv1a(c, chained), want);
      chained = want;
    }
  }
}

TEST(Error, MacrosThrowWithContext) {
  try {
    CABT_FAIL("value " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("value 42"), std::string::npos);
  }
  EXPECT_THROW(CABT_CHECK(false, "nope"), Error);
  EXPECT_NO_THROW(CABT_CHECK(true, "fine"));
}

}  // namespace
}  // namespace cabt
