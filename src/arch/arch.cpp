#include "arch/arch.h"

#include "common/bits.h"
#include "common/error.h"
#include "common/xml.h"

namespace cabt::arch {

unsigned ICacheModel::offsetBits() const { return log2Exact(line_bytes); }
unsigned ICacheModel::setBits() const { return log2Exact(sets); }

void ICacheModel::validate() const {
  CABT_CHECK(isPowerOfTwo(sets), "cache sets must be a power of two");
  CABT_CHECK(isPowerOfTwo(line_bytes) && line_bytes >= 4,
             "cache line size must be a power of two >= 4");
  CABT_CHECK(ways >= 1 && ways <= 8, "cache associativity out of range");
}

ArchDescription ArchDescription::defaultTc10gp() {
  return parseArchXml(defaultArchXml());
}

std::string defaultArchXml() {
  return R"(<?xml version="1.0"?>
<processor name="trc32-tc10gp" clock_hz="48000000">
  <!-- Dual-pipeline in-order core: IP (integer) + LS (load/store).
       An IP instruction immediately followed by an LS instruction can
       issue in the same cycle. -->
  <pipeline dual_issue="1">
    <latency class="alu"  cycles="1"/>
    <latency class="mul"  cycles="2"/>
    <latency class="load" cycles="2"/>
  </pipeline>
  <!-- Static branch prediction: backward taken, forward not taken. -->
  <branch taken_predicted_extra="1" mispredict_extra="2" indirect_extra="2"/>
  <icache enabled="1" sets="64" ways="2" line_bytes="16" miss_penalty="8"/>
  <dcache enabled="0" sets="64" ways="2" line_bytes="16" miss_penalty="8"/>
  <memorymap>
    <region name="flash" base="0x80000000" size="0x00100000" kind="rom"/>
    <region name="ram"   base="0xd0000000" size="0x00100000" kind="ram"
            remap="0x00800000"/>
    <region name="io"    base="0xf0000000" size="0x00010000" kind="io"/>
  </memorymap>
</processor>
)";
}

namespace {

RegionKind parseKind(const std::string& kind, int line) {
  if (kind == "rom") {
    return RegionKind::kRom;
  }
  if (kind == "ram") {
    return RegionKind::kRam;
  }
  if (kind == "io") {
    return RegionKind::kIo;
  }
  CABT_FAIL("unknown region kind '" << kind << "' at line " << line);
}

/// A region address or size: a negative or wider value must not wrap
/// into a plausible 32-bit one.
uint32_t parseU32(const xml::Element& e, const char* attr, int64_t v) {
  CABT_CHECK(v >= 0 && v <= int64_t{0xffffffff},
             "region " << attr << " " << v << " at line " << e.line()
                       << " is not a 32-bit value");
  return static_cast<uint32_t>(v);
}

ICacheModel parseCache(const xml::Element& e) {
  ICacheModel cache;
  cache.enabled = e.intAttrOr("enabled", 1) != 0;
  cache.sets = static_cast<uint32_t>(e.intAttrOr("sets", cache.sets));
  cache.ways = static_cast<uint32_t>(e.intAttrOr("ways", cache.ways));
  cache.line_bytes =
      static_cast<uint32_t>(e.intAttrOr("line_bytes", cache.line_bytes));
  cache.miss_penalty =
      static_cast<uint32_t>(e.intAttrOr("miss_penalty", cache.miss_penalty));
  cache.validate();
  return cache;
}

}  // namespace

ArchDescription parseArchXml(std::string_view xml_text) {
  const auto root = xml::parse(xml_text);
  CABT_CHECK(root->name() == "processor",
             "architecture description root must be <processor>, got <"
                 << root->name() << ">");
  ArchDescription desc;
  desc.name = root->attrOr("name", desc.name);
  desc.clock_hz = static_cast<uint64_t>(
      root->intAttrOr("clock_hz", static_cast<int64_t>(desc.clock_hz)));
  CABT_CHECK(desc.clock_hz > 0, "clock_hz must be positive");

  if (const xml::Element* pipe = root->child("pipeline")) {
    desc.pipeline.dual_issue = pipe->intAttrOr("dual_issue", 1) != 0;
    for (const xml::Element* lat : pipe->childrenNamed("latency")) {
      const std::string& cls = lat->attr("class");
      const auto cycles = static_cast<unsigned>(lat->intAttr("cycles"));
      CABT_CHECK(cycles >= 1 && cycles <= 16,
                 "latency for class '" << cls << "' out of range");
      if (cls == "alu") {
        desc.pipeline.alu_latency = cycles;
      } else if (cls == "mul") {
        desc.pipeline.mul_latency = cycles;
      } else if (cls == "load") {
        desc.pipeline.load_latency = cycles;
      } else {
        CABT_FAIL("unknown latency class '" << cls << "' at line "
                                            << lat->line());
      }
    }
  }

  if (const xml::Element* br = root->child("branch")) {
    desc.branch.taken_predicted_extra = static_cast<unsigned>(
        br->intAttrOr("taken_predicted_extra",
                      desc.branch.taken_predicted_extra));
    desc.branch.mispredict_extra = static_cast<unsigned>(
        br->intAttrOr("mispredict_extra", desc.branch.mispredict_extra));
    desc.branch.indirect_extra = static_cast<unsigned>(
        br->intAttrOr("indirect_extra", desc.branch.indirect_extra));
  }

  if (const xml::Element* ic = root->child("icache")) {
    desc.icache = parseCache(*ic);
  }
  if (const xml::Element* dc = root->child("dcache")) {
    desc.dcache = parseCache(*dc);
  }

  if (const xml::Element* mm = root->child("memorymap")) {
    for (const xml::Element* r : mm->childrenNamed("region")) {
      MemRegion region;
      region.name = r->attr("name");
      region.base = parseU32(*r, "base", r->intAttr("base"));
      region.size = parseU32(*r, "size", r->intAttr("size"));
      region.kind = parseKind(r->attr("kind"), r->line());
      region.remap_base =
          parseU32(*r, "remap", r->intAttrOr("remap", region.base));
      desc.memory_map.addRegion(std::move(region));
    }
  }
  return desc;
}

}  // namespace cabt::arch
