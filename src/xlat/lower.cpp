// Lowering: TRC32 instructions -> V6X ops, with cycle-generation
// annotation (paper Fig. 2), dynamic branch-prediction correction
// (section 3.4.1) and instruction-cache instrumentation (section 3.4.2,
// Figs. 3 and 4).
#include "common/error.h"
#include "common/strutil.h"
#include "soc/sync_device.h"
#include "xlat/internal.h"
#include "xlat/regmap.h"

namespace cabt::xlat {
namespace {

using trc::Opc;
using vliw::kNoReg;
using vliw::MachineOp;
using vliw::Pred;
using vliw::PredReg;
using vliw::VOpc;

/// Largest static cycle count a block's "start cycle generation" can
/// carry (its MVK immediate is 16 bits wide).
constexpr uint32_t kMaxAnnotatedCycles = 30000;

/// Block-local temporary allocator over the fixed pool. Temporaries never
/// live across source instructions, so the per-expansion reset keeps the
/// pool small.
class TempAlloc {
 public:
  uint8_t get() {
    CABT_CHECK(next_ < kTempPoolSize, "temporary register pool exhausted");
    return kTempPool[next_++];
  }
  void reset() { next_ = 0; }

 private:
  int next_ = 0;
};

/// Builds ops for one source block.
class Lowerer {
 public:
  Lowerer(const LowerContext& ctx, SourceBlock& block)
      : ctx_(ctx), block_(block) {}

  void run() {
    const DetailLevel level = ctx_.options.level;
    if (level >= DetailLevel::kStatic) {
      emitSyncStart(block_.static_cycles);
    }
    size_t next_cab = 0;
    for (size_t i = 0; i < block_.instrs.size(); ++i) {
      temps_.reset();
      if (next_cab < block_.lookups.size() &&
          block_.lookups[next_cab].start == i) {
        emitCabLookup(block_.lookups[next_cab]);
        ++next_cab;
        temps_.reset();
      }
      const trc::Instr& in = block_.instrs[i];
      const bool is_terminator = i + 1 == block_.instrs.size() &&
                                 (in.isControlTransfer() ||
                                  in.opc == Opc::kHalt);
      if (is_terminator) {
        lowerTerminator(in);
      } else {
        lowerPlain(in);
      }
    }
    if (!block_.endsWithControlTransfer() &&
        block_.last().opc != Opc::kHalt) {
      // Fall-through block: synchronize before the next block begins.
      temps_.reset();
      emitBlockEpilogue();
    }
  }

 private:
  // ---- op emission helpers ---------------------------------------------

  XOp& push(MachineOp op) {
    XOp x;
    x.op = op;
    block_.code.push_back(x);
    return block_.code.back();
  }

  MachineOp make(VOpc opc, uint8_t dst, uint8_t s1 = kNoReg,
                 uint8_t s2 = kNoReg, int32_t imm = 0) {
    MachineOp m;
    m.opc = opc;
    m.dst = dst;
    m.src1 = s1;
    m.src2 = s2;
    m.imm = imm;
    return m;
  }

  void emitRRR(VOpc opc, const trc::Instr& in) {
    push(make(opc, srcD(in.rd), srcD(in.ra), srcD(in.rb)));
  }

  /// Materialises a 32-bit constant into `reg` (one or two ops).
  void emitConst(uint8_t reg, uint32_t value) {
    const int32_t sv = static_cast<int32_t>(value);
    if (sv >= -32768 && sv <= 32767) {
      push(make(VOpc::kMvk, reg, kNoReg, kNoReg, sv));
      return;
    }
    push(make(VOpc::kMvk, reg, kNoReg, kNoReg,
              static_cast<int16_t>(value & 0xffffu)));
    push(make(VOpc::kMvkh, reg, kNoReg, kNoReg,
              static_cast<int32_t>(value >> 16)));
  }

  /// dst = src + imm (any 16-bit signed imm), preserving src.
  void emitAddImm(uint8_t dst, uint8_t src, int32_t imm) {
    if (dst != src) {
      push(make(VOpc::kMv, dst, src));
    }
    if (imm != 0 || dst == src) {
      push(make(VOpc::kAddk, dst, kNoReg, kNoReg, imm));
    }
  }

  /// Memory op with an arbitrary source offset; falls back to effective-
  /// address materialisation when the offset is not directly encodable.
  void emitMem(VOpc opc, uint8_t data_reg, uint8_t base, int32_t off,
               bool volatile_mem = false) {
    const int32_t scale = static_cast<int32_t>(vliw::memAccessSize(opc));
    if (off % scale == 0 && off / scale >= -31 && off / scale <= 31) {
      push(make(opc, data_reg, base, kNoReg, off)).volatile_mem =
          volatile_mem;
      return;
    }
    const uint8_t t = temps_.get();
    emitAddImm(t, base, off);
    push(make(opc, data_reg, t, kNoReg, 0)).volatile_mem = volatile_mem;
  }

  // ---- annotation (paper Fig. 2 / Fig. 3) --------------------------------

  void emitSyncStart(uint32_t n) {
    // The count travels as a 16-bit MVK immediate.
    CABT_CHECK(n <= kMaxAnnotatedCycles,
               "basic block too long for annotation: "
                   << n << " static cycles at " << hex32(block_.addr())
                   << " (at most " << kMaxAnnotatedCycles << ")");
    const uint8_t t = temps_.get();
    push(make(VOpc::kMvk, t, kNoReg, kNoReg, static_cast<int32_t>(n)));
    push(make(VOpc::kStw, t, kSyncBaseReg, kNoReg,
              soc::SyncDevice::kStartOffset))
        .volatile_mem = true;
    temps_.reset();
  }

  void emitSyncWait() {
    push(make(VOpc::kLdw, kSyncDiscardReg, kSyncBaseReg, kNoReg,
              soc::SyncDevice::kStatusOffset))
        .volatile_mem = true;
  }

  [[nodiscard]] bool blockNeedsCorrectionFlush() const {
    if (ctx_.options.level < DetailLevel::kBranchPredict) {
      return false;
    }
    // A block whose lookups were all proven MRU hits collects no cache
    // correction (elideMruHits left its lookups empty).
    if (!block_.lookups.empty()) {
      return true;
    }
    return block_.endsWithControlTransfer() &&
           block_.last().cls() == arch::OpClass::kBranchCond;
  }

  /// End-of-block synchronisation: wait for the static generation, then
  /// flush the dynamically collected correction cycles (Fig. 3: "start
  /// correction cycle generation" + "wait for end of correction cycle
  /// generation").
  void emitBlockEpilogue() {
    if (ctx_.options.level < DetailLevel::kStatic) {
      return;
    }
    emitSyncWait();
    if (blockNeedsCorrectionFlush()) {
      push(make(VOpc::kStw, kCorrReg, kSyncBaseReg, kNoReg,
                soc::SyncDevice::kCorrectOffset))
          .volatile_mem = true;
      emitSyncWait();
      push(make(VOpc::kMvk, kCorrReg, kNoReg, kNoReg, 0));
    }
  }

  // ---- cache instrumentation (paper section 3.4.2) -----------------------

  void emitCabLookup(const core::CacheAnalysisBlock& cab) {
    // Arguments: A6 = combined tag+valid word, A7 = set byte offset.
    push(make(VOpc::kMvk, kCacheSetReg, kNoReg, kNoReg,
              static_cast<int32_t>(cab.set *
                                   cacheSetStride(ctx_.desc->icache))));
    emitConst(kCacheTagReg, cab.tag_word);
    if (inlineCache()) {
      for (const XOp& x : buildCacheRoutine(ctx_.desc->icache,
                                            /*inline_body=*/true)) {
        block_.code.push_back(x);
      }
      return;
    }
    // Call: materialise the return address (patched at emit time), branch
    // to the routine appended after the program.
    const uint32_t call_id = num_calls_++;
    XOp& lo = push(make(VOpc::kMvk, kCacheRetReg, kNoReg, kNoReg, 0));
    lo.fixup = XOp::Fixup::kRetAddrLo;
    lo.fixup_data = call_id;
    XOp& hi = push(make(VOpc::kMvkh, kCacheRetReg, kNoReg, kNoReg, 0));
    hi.fixup = XOp::Fixup::kRetAddrHi;
    hi.fixup_data = call_id;
    XOp& call = push(make(VOpc::kB, kNoReg));
    call.fixup = XOp::Fixup::kBranchToRoutine;
    call.is_call = true;
  }

  [[nodiscard]] bool inlineCache() const {
    const uint32_t threshold = ctx_.options.inline_cache_threshold;
    return threshold != 0 && block_.instrs.size() >= threshold;
  }

  // ---- plain instruction selection ---------------------------------------

  void lowerPlain(const trc::Instr& in) {
    switch (in.opc) {
      case Opc::kAdd:
        emitRRR(VOpc::kAdd, in);
        break;
      case Opc::kSub:
        emitRRR(VOpc::kSub, in);
        break;
      case Opc::kAnd:
        emitRRR(VOpc::kAnd, in);
        break;
      case Opc::kOr:
        emitRRR(VOpc::kOr, in);
        break;
      case Opc::kXor:
        emitRRR(VOpc::kXor, in);
        break;
      case Opc::kShl:
        emitRRR(VOpc::kShl, in);
        break;
      case Opc::kShr:
        emitRRR(VOpc::kShr, in);
        break;
      case Opc::kSar:
        emitRRR(VOpc::kSar, in);
        break;
      case Opc::kMul:
        emitRRR(VOpc::kMpy, in);
        break;
      case Opc::kEq:
        emitRRR(VOpc::kCmpEq, in);
        break;
      case Opc::kNe:
        emitRRR(VOpc::kCmpNe, in);
        break;
      case Opc::kLt:
        emitRRR(VOpc::kCmpLt, in);
        break;
      case Opc::kGe:
        emitRRR(VOpc::kCmpGe, in);
        break;
      case Opc::kLtu:
        emitRRR(VOpc::kCmpLtu, in);
        break;
      case Opc::kGeu:
        emitRRR(VOpc::kCmpGeu, in);
        break;
      case Opc::kAddi:
        emitAddImm(srcD(in.rd), srcD(in.ra), in.imm);
        break;
      case Opc::kMovi:
        push(make(VOpc::kMvk, srcD(in.rd), kNoReg, kNoReg, in.imm));
        break;
      case Opc::kMovh:
        emitConst(srcD(in.rd), static_cast<uint32_t>(in.imm) << 16);
        break;
      case Opc::kMova:
        push(make(VOpc::kMv, srcA(in.rd), srcD(in.ra)));
        break;
      case Opc::kMovd:
        push(make(VOpc::kMv, srcD(in.rd), srcA(in.ra)));
        break;
      case Opc::kLea:
        emitAddImm(srcA(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kMovha: {
        // Base-address rewriting: the address analysis may have remapped
        // this immediate into the target address space.
        uint32_t imm = static_cast<uint32_t>(in.imm);
        const auto it = ctx_.addresses->movha_rewrites.find(in.addr);
        if (it != ctx_.addresses->movha_rewrites.end()) {
          imm = it->second;
        }
        emitConst(srcA(in.rd), imm << 16);
        break;
      }
      case Opc::kAdda:
        push(make(VOpc::kAdd, srcA(in.rd), srcA(in.ra), srcA(in.rb)));
        break;
      case Opc::kSuba:
        push(make(VOpc::kSub, srcA(in.rd), srcA(in.ra), srcA(in.rb)));
        break;
      case Opc::kLdw:
        emitMem(VOpc::kLdw, srcD(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kLdh:
        emitMem(VOpc::kLdh, srcD(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kLdhu:
        emitMem(VOpc::kLdhu, srcD(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kLdb:
        emitMem(VOpc::kLdb, srcD(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kLdbu:
        emitMem(VOpc::kLdbu, srcD(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kLda:
        emitMem(VOpc::kLdw, srcA(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kStw:
        emitMem(VOpc::kStw, srcD(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kSth:
        emitMem(VOpc::kSth, srcD(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kStb:
        emitMem(VOpc::kStb, srcD(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kSta:
        emitMem(VOpc::kStw, srcA(in.rd), srcA(in.ra), in.imm);
        break;
      case Opc::kNop:
      case Opc::kNop16:
        break;  // timing-only; already in the static cycle count
      case Opc::kBkpt:
        push(make(VOpc::kYield, kNoReg));
        break;
      case Opc::kMov16:
        push(make(VOpc::kMv, srcD(in.rd), srcD(in.rb)));
        break;
      case Opc::kAdd16:
        push(make(VOpc::kAdd, srcD(in.rd), srcD(in.rd), srcD(in.rb)));
        break;
      case Opc::kSub16:
        push(make(VOpc::kSub, srcD(in.rd), srcD(in.rd), srcD(in.rb)));
        break;
      case Opc::kMovi16:
        push(make(VOpc::kMvk, srcD(in.rd), kNoReg, kNoReg, in.imm));
        break;
      case Opc::kAddi16:
        push(make(VOpc::kAddk, srcD(in.rd), kNoReg, kNoReg, in.imm));
        break;
      default:
        CABT_FAIL("block terminator reached lowerPlain: "
                  << in.info().mnemonic);
    }
  }

  // ---- terminators --------------------------------------------------------

  void emitBranchToBlock(uint32_t target_src_addr, Pred pred = {}) {
    MachineOp b = make(VOpc::kB, kNoReg);
    b.pred = pred;
    XOp& x = push(b);
    x.fixup = XOp::Fixup::kBranchToBlock;
    x.fixup_data = target_src_addr;
  }

  /// Conditional-branch condition -> predicate register A1.
  void emitCondition(const trc::Instr& in) {
    switch (in.opc) {
      case Opc::kJeq:
        push(make(VOpc::kCmpEq, vliw::regA(1), srcD(in.ra), srcD(in.rb)));
        break;
      case Opc::kJne:
        push(make(VOpc::kCmpNe, vliw::regA(1), srcD(in.ra), srcD(in.rb)));
        break;
      case Opc::kJlt:
        push(make(VOpc::kCmpLt, vliw::regA(1), srcD(in.ra), srcD(in.rb)));
        break;
      case Opc::kJge:
        push(make(VOpc::kCmpGe, vliw::regA(1), srcD(in.ra), srcD(in.rb)));
        break;
      case Opc::kJltu:
        push(make(VOpc::kCmpLtu, vliw::regA(1), srcD(in.ra), srcD(in.rb)));
        break;
      case Opc::kJgeu:
        push(make(VOpc::kCmpGeu, vliw::regA(1), srcD(in.ra), srcD(in.rb)));
        break;
      case Opc::kJnz16:
      case Opc::kJz16:
        // Copy the tested register into the predicate register; the sense
        // is handled by the z bit on the branch.
        push(make(VOpc::kMv, vliw::regA(1), srcD(in.rd)));
        break;
      default:
        CABT_FAIL("not a conditional branch");
    }
  }

  /// Dynamic branch-prediction correction (paper section 3.4.1): count
  /// the outcome-dependent extra cycles into the correction register.
  void emitBranchCorrection(const trc::Instr& in, bool taken_sense_z) {
    const bool predicted_taken = arch::BranchModel::predictsTaken(in.imm);
    const unsigned extra_taken =
        ctx_.desc->branch.conditionalExtra(predicted_taken, true);
    const unsigned extra_not_taken =
        ctx_.desc->branch.conditionalExtra(predicted_taken, false);
    if (extra_taken != 0) {
      MachineOp add = make(VOpc::kAddk, kCorrReg, kNoReg, kNoReg,
                           static_cast<int32_t>(extra_taken));
      add.pred = {PredReg::kA1, taken_sense_z};
      push(add);
    }
    if (extra_not_taken != 0) {
      MachineOp add = make(VOpc::kAddk, kCorrReg, kNoReg, kNoReg,
                           static_cast<int32_t>(extra_not_taken));
      add.pred = {PredReg::kA1, !taken_sense_z};
      push(add);
    }
  }

  void lowerTerminator(const trc::Instr& in) {
    switch (in.cls()) {
      case arch::OpClass::kBranchCond: {
        // "taken" corresponds to A1 != 0, except jz16 where it is A1 == 0.
        const bool taken_sense_z = in.opc == Opc::kJz16;
        emitCondition(in);
        if (ctx_.options.level >= DetailLevel::kBranchPredict) {
          emitBranchCorrection(in, taken_sense_z);
        }
        emitBlockEpilogue();
        emitBranchToBlock(in.branchTarget(),
                          Pred{PredReg::kA1, taken_sense_z});
        break;
      }
      case arch::OpClass::kBranchUncond:
        emitBlockEpilogue();
        emitBranchToBlock(in.branchTarget());
        break;
      case arch::OpClass::kCall: {
        emitBlockEpilogue();
        // The link register keeps the *source* return address so that the
        // architectural state matches the reference processor.
        emitConst(srcA(trc::kLinkRegister), in.addr + in.size);
        emitBranchToBlock(in.branchTarget());
        break;
      }
      case arch::OpClass::kBranchInd: {
        emitBlockEpilogue();
        // Dispatch through the address-translation table:
        //   entry address = 2*src_target + (table_base - 2*text_base).
        const uint8_t src_reg =
            in.opc == Opc::kRet16 ? srcA(trc::kLinkRegister) : srcA(in.ra);
        const uint8_t t = temps_.get();
        const uint8_t t2 = temps_.get();
        push(make(VOpc::kAdd, t, src_reg, src_reg));
        push(make(VOpc::kAdd, t, t, ctx_.dispatch_reg));
        push(make(VOpc::kLdw, t2, t, kNoReg, 0));
        push(make(VOpc::kBr, kNoReg, t2));
        break;
      }
      default:
        if (in.opc == Opc::kHalt) {
          emitBlockEpilogue();
          push(make(VOpc::kHalt, kNoReg));
          return;
        }
        CABT_FAIL("unexpected terminator " << in.info().mnemonic);
    }
  }

  const LowerContext& ctx_;
  SourceBlock& block_;
  TempAlloc temps_;
  uint32_t num_calls_ = 0;
};

}  // namespace

std::vector<XOp> buildCacheRoutine(const arch::ICacheModel& icache,
                                   bool inline_body) {
  CABT_CHECK(icache.ways == 2,
             "the generated cache-correction routine supports 2-way "
             "set-associative caches (got ways="
                 << icache.ways << ")");
  std::vector<XOp> out;
  const auto push = [&out](MachineOp op) -> XOp& {
    XOp x;
    x.op = op;
    out.push_back(x);
    return out.back();
  };
  const auto make = [](VOpc opc, uint8_t dst, uint8_t s1 = kNoReg,
                       uint8_t s2 = kNoReg, int32_t imm = 0) {
    MachineOp m;
    m.opc = opc;
    m.dst = dst;
    m.src1 = s1;
    m.src2 = s2;
    m.imm = imm;
    return m;
  };
  // Fixed temporaries (block-local pool; caller temporaries are dead).
  const uint8_t t0 = kTempPool[0];   // set state address
  const uint8_t w0 = kTempPool[1];   // way-0 tag word
  const uint8_t w1 = kTempPool[2];   // way-1 tag word
  const uint8_t lru = kTempPool[3];  // LRU word
  const uint8_t nl = kTempPool[4];   // new LRU word, hit case
  const uint8_t m255 = kTempPool[5];
  const uint8_t v = kTempPool[6];    // victim way index
  const uint8_t va = kTempPool[7];   // victim tag word address
  const uint8_t nl2 = kTempPool[8];  // new LRU word, miss case

  // Input: A6 = expected tag+valid word, A7 = set byte offset.
  push(make(VOpc::kAdd, t0, kCacheBaseReg, kCacheSetReg));
  push(make(VOpc::kLdw, w0, t0, kNoReg, 0));
  push(make(VOpc::kLdw, w1, t0, kNoReg, 4));
  push(make(VOpc::kLdw, lru, t0, kNoReg, 8));
  // Hit detection per way (paper Fig. 4: "if tag can be found in specified
  // set and valid bit is set").
  push(make(VOpc::kCmpEq, vliw::regA(2), w0, kCacheTagReg));
  push(make(VOpc::kCmpEq, vliw::regB(0), w1, kCacheTagReg));
  {
    // New LRU word on hit: accessed way becomes most recently used.
    MachineOp a = make(VOpc::kMvk, nl, kNoReg, kNoReg, 1);  // hit way 0
    a.pred = {PredReg::kA2, false};
    push(a);
    MachineOp b = make(VOpc::kMvk, nl, kNoReg, kNoReg, 256);  // hit way 1
    b.pred = {PredReg::kB0, false};
    push(b);
  }
  push(make(VOpc::kOr, vliw::regA(2), vliw::regA(2), vliw::regB(0)));
  // Miss path ("use lru information to find out tag to overwrite"):
  push(make(VOpc::kMvk, m255, kNoReg, kNoReg, 255));
  push(make(VOpc::kAnd, v, lru, m255));
  push(make(VOpc::kAdd, va, v, v));
  push(make(VOpc::kAdd, va, va, va));
  push(make(VOpc::kAdd, va, va, t0));
  push(make(VOpc::kMv, vliw::regB(0), v));
  {
    MachineOp a = make(VOpc::kMvk, nl2, kNoReg, kNoReg, 256);  // victim 1
    a.pred = {PredReg::kB0, false};
    push(a);
    MachineOp b = make(VOpc::kMvk, nl2, kNoReg, kNoReg, 1);  // victim 0
    b.pred = {PredReg::kB0, true};
    push(b);
  }
  // Commit: hit renews the LRU information; miss writes the new tag word
  // (with valid bit), the new LRU word, and the correction cycles.
  {
    MachineOp s = make(VOpc::kStw, nl, t0, kNoReg, 8);
    s.pred = {PredReg::kA2, false};
    push(s);
    MachineOp w = make(VOpc::kStw, kCacheTagReg, va, kNoReg, 0);
    w.pred = {PredReg::kA2, true};
    push(w);
    MachineOp l = make(VOpc::kStw, nl2, t0, kNoReg, 8);
    l.pred = {PredReg::kA2, true};
    push(l);
    MachineOp c = make(VOpc::kAddk, kCorrReg, kNoReg, kNoReg,
                       static_cast<int32_t>(icache.miss_penalty));
    c.pred = {PredReg::kA2, true};
    push(c);
  }
  if (!inline_body) {
    push(make(VOpc::kBr, kNoReg, kCacheRetReg));
  }
  return out;
}

void lowerBlocks(const LowerContext& ctx, std::vector<SourceBlock>& blocks) {
  for (SourceBlock& block : blocks) {
    Lowerer lowerer(ctx, block);
    lowerer.run();
  }
}

}  // namespace cabt::xlat
