// Translator facade: runs the pass pipeline and emits the final V6X ELF
// image (paper Fig. 1, bottom half).
#include "xlat/translator.h"

#include <algorithm>

#include "common/bits.h"
#include "common/strutil.h"
#include "core/block_graph.h"
#include "core/program_artifact.h"
#include "xlat/internal.h"
#include "xlat/regmap.h"

namespace cabt::xlat {
namespace {

using vliw::kNoReg;
using vliw::MachineOp;
using vliw::VOpc;


MachineOp makeOp(VOpc opc, uint8_t dst, uint8_t s1 = kNoReg,
                 uint8_t s2 = kNoReg, int32_t imm = 0) {
  MachineOp m;
  m.opc = opc;
  m.dst = dst;
  m.src1 = s1;
  m.src2 = s2;
  m.imm = imm;
  return m;
}

void pushConst(std::vector<XOp>& out, uint8_t reg, uint32_t value) {
  XOp lo;
  lo.op = makeOp(VOpc::kMvk, reg, kNoReg, kNoReg,
                 static_cast<int16_t>(value & 0xffffu));
  out.push_back(lo);
  XOp hi;
  hi.op = makeOp(VOpc::kMvkh, reg, kNoReg, kNoReg,
                 static_cast<int32_t>(value >> 16));
  out.push_back(hi);
}

/// Where the translated image goes in the V6X address space. The
/// instruction-oriented image is the debugger's second image
/// (debug::translateDual): it sits beside the block-oriented one, with its
/// own code section, jump table and dispatch register, and shares the
/// cache state area with it.
struct Placement {
  uint32_t text_base;
  const char* text_section;
  uint32_t table_base;
  uint8_t dispatch_reg;
};

Placement placementFor(const TranslateOptions& options) {
  if (options.instruction_oriented) {
    return {kInstrTextBase, kInstrTextSection, kInstrJumpTableBase,
            kAltDispatchReg};
  }
  return {kTextBase, ".text", kJumpTableBase, kDispatchReg};
}

/// One unit per graph block, read from the block records. `icache`: the
/// units carry the records' CABs as their lookups.
std::vector<SourceBlock> blockUnits(const core::BlockGraph& graph,
                                    bool icache) {
  std::vector<SourceBlock> units;
  units.reserve(graph.blocks().size());
  for (const core::Block& b : graph.blocks()) {
    SourceBlock& unit = units.emplace_back();
    unit.instrs = graph.instrs(b);
    unit.static_cycles = b.static_cycles;
    if (icache) {
      const std::span<const core::CacheAnalysisBlock> cabs = graph.cabs(b);
      unit.lookups.assign(cabs.begin(), cabs.end());
    }
  }
  return units;
}

/// One unit per instruction, for the instruction-oriented translation
/// (paper section 3.5; each unit is later prefixed with a YIELD into the
/// debug runtime). A unit costs its one instruction from a drained
/// pipeline and looks up the CAB of its block that holds the
/// instruction.
std::vector<SourceBlock> instructionUnits(const arch::ArchDescription& desc,
                                          const core::BlockGraph& graph,
                                          bool icache) {
  std::vector<SourceBlock> units;
  units.reserve(graph.instrs().size());
  for (const core::Block& b : graph.blocks()) {
    const std::span<const trc::Instr> instrs = graph.instrs(b);
    const std::span<const core::CacheAnalysisBlock> cabs = graph.cabs(b);
    size_t cab = 0;
    for (size_t k = 0; k < instrs.size(); ++k) {
      SourceBlock& unit = units.emplace_back();
      unit.instrs = instrs.subspan(k, 1);
      unit.static_cycles = core::staticBlockCycles(desc, &instrs[k], 1);
      if (icache) {
        while (cab + 1 < cabs.size() && cabs[cab + 1].start <= k) {
          ++cab;
        }
        unit.lookups.push_back({0, cabs[cab].set, cabs[cab].tag_word});
      }
    }
  }
  return units;
}

}  // namespace

const char* detailLevelName(DetailLevel level) {
  switch (level) {
    case DetailLevel::kFunctional:
      return "functional";
    case DetailLevel::kStatic:
      return "static";
    case DetailLevel::kBranchPredict:
      return "branch-predict";
    case DetailLevel::kICache:
      return "icache";
  }
  return "?";
}

TranslationResult translate(const arch::ArchDescription& desc,
                            const elf::Object& object,
                            const TranslateOptions& options) {
  CABT_CHECK(object.machine == elf::Machine::kTrc32,
             "translator input must be a TRC32 image");
  const elf::Section* src_text = object.findSection(".text");
  CABT_CHECK(src_text != nullptr, "source image has no .text");
  const uint32_t src_text_base = src_text->addr;
  const uint32_t src_text_size =
      static_cast<uint32_t>(src_text->data.size());

  const Placement place = placementFor(options);

  // ---- analysis passes ----------------------------------------------------
  // Every static fact about a block is read from its one record in the
  // shared artifact, the record the reference ISS executes from: both
  // sides acquire it through the ProgramArtifactCache, so a board fleet
  // plus its translator pay one decode per image. (The skew drill below
  // mutates only the local units, never the shared record.)
  const std::shared_ptr<const core::ProgramArtifact> artifact =
      core::ProgramArtifactCache::instance().acquire(desc, object);
  const core::BlockGraph& graph = artifact->graph();
  const AddressAnalysis analysis = analyzeAddresses(desc, graph);
  const bool icache = options.level >= DetailLevel::kICache;
  CABT_CHECK(!icache || desc.icache.enabled,
             "icache detail level requires an enabled icache model");
  std::vector<SourceBlock> blocks =
      options.instruction_oriented ? instructionUnits(desc, graph, icache)
                                   : blockUnits(graph, icache);
  if (options.debug_skew_static_cycles) {
    for (SourceBlock& b : blocks) {
      if (b.instrs.size() >= 2) {
        ++b.static_cycles;
      }
    }
  }
  // Block-oriented translation only: the instruction-oriented (stepping)
  // image keeps every lookup (DESIGN.md section 2.4).
  const uint64_t cab_lookups_elided =
      icache && !options.instruction_oriented
          ? elideMruHits(desc.icache, graph, blocks)
          : 0;

  const bool has_indirect =
      std::any_of(graph.instrs().begin(), graph.instrs().end(),
                  [](const trc::Instr& in) {
                    return in.cls() == arch::OpClass::kBranchInd;
                  });

  // ---- lowering -------------------------------------------------------------
  LowerContext ctx;
  ctx.desc = &desc;
  ctx.addresses = &analysis;
  ctx.options = options;
  ctx.dispatch_reg = place.dispatch_reg;
  lowerBlocks(ctx, blocks);
  if (options.instruction_oriented) {
    for (SourceBlock& b : blocks) {
      XOp y;
      y.op = makeOp(VOpc::kYield, kNoReg);
      b.code.insert(b.code.begin(), y);
    }
  }

  // ---- prologue -------------------------------------------------------------
  std::vector<XOp> prologue;
  pushConst(prologue, kSyncBaseReg, kSyncDeviceBase);
  {
    XOp z;
    z.op = makeOp(VOpc::kMvk, kCorrReg, kNoReg, kNoReg, 0);
    prologue.push_back(z);
  }
  if (has_indirect) {
    pushConst(prologue, place.dispatch_reg,
              place.table_base - 2u * src_text_base);
  }
  if (icache) {
    pushConst(prologue, kCacheBaseReg, kCacheDataBase);
  }
  {
    XOp b;
    b.op = makeOp(VOpc::kB, kNoReg);
    b.fixup = XOp::Fixup::kBranchToBlock;
    b.fixup_data = object.entry;
    prologue.push_back(b);
  }

  // ---- scheduling -------------------------------------------------------------
  ScheduledBlock prologue_sched = scheduleBlock(prologue);
  std::vector<ScheduledBlock> scheduled;
  scheduled.reserve(blocks.size());
  for (const SourceBlock& b : blocks) {
    scheduled.push_back(scheduleBlock(b.code));
  }
  // The cache routine is emitted only when some lookup still calls it.
  const bool need_routine =
      std::any_of(blocks.begin(), blocks.end(), [](const SourceBlock& b) {
        return std::any_of(b.code.begin(), b.code.end(),
                           [](const XOp& x) { return x.is_call; });
      });
  ScheduledBlock routine_sched;
  if (need_routine) {
    routine_sched =
        scheduleBlock(buildCacheRoutine(desc.icache, /*inline_body=*/false));
  }

  // ---- layout -------------------------------------------------------------
  TranslationResult result;
  uint32_t cursor = place.text_base;
  const auto layoutUnit = [&cursor](ScheduledBlock& sb) {
    const uint32_t start = cursor;
    for (vliw::Packet& p : sb.packets) {
      p.addr = cursor;
      cursor += p.sizeBytes();
    }
    return start;
  };
  layoutUnit(prologue_sched);
  std::map<uint32_t, uint32_t> block_tgt;  // source block addr -> target
  for (size_t i = 0; i < blocks.size(); ++i) {
    const uint32_t src = blocks[i].addr();
    const uint32_t tgt = layoutUnit(scheduled[i]);
    block_tgt.emplace(src, tgt);
    BlockInfo info;
    info.src_addr = src;
    info.tgt_addr = tgt;
    info.num_instrs = static_cast<uint32_t>(blocks[i].instrs.size());
    info.static_cycles = blocks[i].static_cycles;
    result.blocks.emplace(src, info);
    if (options.instruction_oriented) {
      result.instr_map.emplace(src, tgt);
    }
  }
  const uint32_t routine_addr = need_routine ? layoutUnit(routine_sched)
                                             : 0;

  // ---- fixups -------------------------------------------------------------
  const auto applyFixups = [&](ScheduledBlock& sb) {
    for (const ScheduledBlock::PendingFixup& f : sb.fixups) {
      MachineOp& op = sb.packets[f.packet].ops[f.op];
      switch (f.fixup) {
        case XOp::Fixup::kBranchToBlock: {
          const auto it = block_tgt.find(f.data);
          CABT_CHECK(it != block_tgt.end(),
                     "branch to " << hex32(f.data)
                                  << " which is not a block leader");
          op.imm = static_cast<int32_t>(it->second);
          break;
        }
        case XOp::Fixup::kBranchToRoutine:
          CABT_CHECK(need_routine, "call without a cache routine");
          op.imm = static_cast<int32_t>(routine_addr);
          break;
        case XOp::Fixup::kRetAddrLo:
        case XOp::Fixup::kRetAddrHi: {
          CABT_CHECK(f.data < sb.call_returns.size(), "bad call id");
          const size_t ret_packet = sb.call_returns[f.data];
          CABT_CHECK(ret_packet < sb.packets.size(),
                     "call return past the end of the block");
          const uint32_t ret = sb.packets[ret_packet].addr;
          op.imm = f.fixup == XOp::Fixup::kRetAddrLo
                       ? static_cast<int16_t>(ret & 0xffffu)
                       : static_cast<int32_t>(ret >> 16);
          break;
        }
        case XOp::Fixup::kNone:
          break;
      }
    }
  };
  applyFixups(prologue_sched);
  for (ScheduledBlock& sb : scheduled) {
    applyFixups(sb);
  }

  // ---- emission -------------------------------------------------------------
  std::vector<vliw::Packet> all;
  const auto append = [&all](ScheduledBlock& sb) {
    for (vliw::Packet& p : sb.packets) {
      all.push_back(std::move(p));
    }
  };
  append(prologue_sched);
  for (ScheduledBlock& sb : scheduled) {
    append(sb);
  }
  if (need_routine) {
    append(routine_sched);
  }
  std::vector<uint8_t> code = vliw::encodeProgram(all, place.text_base);
  CABT_CHECK(place.text_base + code.size() == cursor,
             "layout and encoder disagree about code size");
  const uint64_t code_bytes = code.size();

  elf::Object& image = result.image;
  image.machine = elf::Machine::kV6x;
  image.entry = place.text_base;
  {
    elf::Section text;
    text.name = place.text_section;
    text.addr = place.text_base;
    text.executable = true;
    text.data = std::move(code);
    image.sections.push_back(std::move(text));
  }

  // Data sections move to their remapped target addresses.
  for (const elf::Section& s : object.sections) {
    if (s.name == ".text") {
      continue;
    }
    elf::Section copy = s;
    const MemRegion* region = desc.memory_map.find(s.addr);
    if (region != nullptr) {
      CABT_CHECK(region->contains(s.addr + s.sizeInMemory() - 1),
                 "section '" << s.name << "' spans memory regions");
      copy.addr = region->remap(s.addr);
    }
    image.sections.push_back(std::move(copy));
  }

  // Address-translation table for indirect jumps: one word per source
  // halfword; entries at block leaders point at the translated block.
  if (has_indirect) {
    elf::Section table;
    table.name = ".jumptab";
    table.addr = place.table_base;
    table.writable = false;
    table.data.assign(static_cast<size_t>(src_text_size) * 2, 0);
    for (const auto& [src, tgt] : block_tgt) {
      const uint32_t off = (src - src_text_base) * 2;
      for (int i = 0; i < 4; ++i) {
        table.data[off + i] = static_cast<uint8_t>(tgt >> (8 * i));
      }
    }
    image.sections.push_back(std::move(table));
  }

  // Cache state area (paper: "At the end of the translated program space
  // for cache data is added"), initialised to the invalid/LRU-reset state
  // of the behavioural model.
  if (icache) {
    elf::Section cachedata;
    cachedata.name = ".cachedata";
    cachedata.addr = kCacheDataBase;
    cachedata.writable = true;
    const uint32_t stride = cacheSetStride(desc.icache);
    cachedata.data.assign(static_cast<size_t>(desc.icache.sets) * stride, 0);
    uint32_t init_lru = 0;
    for (uint32_t w = 0; w < desc.icache.ways; ++w) {
      init_lru |= w << (8 * w);
    }
    for (uint32_t set = 0; set < desc.icache.sets; ++set) {
      const uint32_t off = set * stride + desc.icache.ways * 4;
      for (int i = 0; i < 4; ++i) {
        cachedata.data[off + i] = static_cast<uint8_t>(init_lru >> (8 * i));
      }
    }
    image.sections.push_back(std::move(cachedata));
  }

  for (const auto& [src, tgt] : block_tgt) {
    image.symbols.push_back(
        {"blk_" + hex32(src), tgt, 0, elf::SymbolBinding::kLocal});
  }

  // ---- stats -------------------------------------------------------------
  TranslationStats& st = result.stats;
  st.blocks = blocks.size();
  st.cab_lookups_elided = cab_lookups_elided;
  st.cabs = cab_lookups_elided;  // elided CABs left SourceBlock::lookups
  for (const SourceBlock& b : blocks) {
    st.source_instructions += b.instrs.size();
    st.cabs += b.lookups.size();
  }
  for (const vliw::Packet& p : all) {
    ++st.packets;
    st.machine_ops += p.ops.size();
  }
  st.code_bytes = code_bytes;
  st.io_accesses_classified = analysis.io_accesses;
  st.ram_accesses_classified = analysis.ram_accesses;
  st.unknown_base_accesses = analysis.unknown_accesses;
  st.rewritten_movha = analysis.movha_rewrites.size();
  return result;
}

}  // namespace cabt::xlat
