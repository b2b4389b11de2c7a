#include "workloads/workloads.h"

#include <utility>

#include "common/error.h"
#include "trc/assembler.h"

namespace cabt::workloads {
namespace {

// Control-flow dominated: subtraction-based Euclid over a table of pairs
// (paper: "two more control flow dominated programs (gcd, sieve)").
// Checksum: sum of the eight gcds = 214.
const char* kGcd = R"(
; gcd - greatest common divisor over a pair table (control dominated)
_start: movha a0, hi(pairs)
        lea a0, a0, lo(pairs)
        movi d9, 0
        movi d8, 8
outer:  ldw d1, [a0]0
        ldw d2, [a0]4
gloop:  jeq d1, d2, gdone
        lt d3, d1, d2
        jnz16 d3, less
        sub d1, d1, d2
        j16 gloop
less:   sub d2, d2, d1
        j16 gloop
gdone:  add d9, d9, d1
        lea a0, a0, 8
        addi16 d8, -1
        jnz16 d8, outer
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
        .data
pairs:  .word 1071, 462, 240, 46, 360, 210, 1000, 35
        .word 81, 57, 123, 82, 35, 64, 999, 111
result: .word 0
)";

// Iterative Fibonacci, repeated; tiny loop body (small basic blocks).
const char* kFibonacci = R"(
; fibonacci - iterative Fibonacci, 180 x 46 iterations
_start: movi d0, 180
        movi d9, 0
outer:  movi d1, 0
        movi d2, 1
        movi d3, 46
floop:  add d4, d1, d2
        mov16 d1, d2
        mov16 d2, d4
        addi16 d3, -1
        jnz16 d3, floop
        add d9, d9, d2
        addi16 d0, -1
        jnz16 d0, outer
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
        .data
result: .word 0
)";

// Sieve of Eratosthenes over 700 byte flags; many small blocks.
// Checksum: number of primes below 700 = 125.
const char* kSieve = R"(
; sieve - sieve of Eratosthenes, N = 700
_start: movha a0, hi(flags)
        lea a0, a0, lo(flags)
        movi d7, 700
        movi d1, 1
        lea a1, a0, 0
        movi d3, 700
clr:    stb d1, [a1]0
        lea a1, a1, 1
        addi16 d3, -1
        jnz16 d3, clr
        movi d4, 2
        movi d9, 0
iloop:  mova a1, d4
        adda a1, a0, a1
        ldbu d5, [a1]0
        jz16 d5, nexti
        addi16 d9, 1
        add d6, d4, d4
jloop:  lt d3, d6, d7
        jz16 d3, nexti
        mova a2, d6
        adda a2, a0, a2
        movi d5, 0
        stb d5, [a2]0
        add d6, d6, d4
        j16 jloop
nexti:  addi16 d4, 1
        lt d3, d4, d7
        jnz16 d3, iloop
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
        .data
result: .word 0
        .bss
flags:  .space 704
)";

// DPCM encoder: prediction, quantisation with clamping branches,
// reconstruction (audio decoding/encoding kernel, mixed control/data).
const char* kDpcm = R"(
; dpcm - differential pulse code modulation encoder, 800 samples
_start: movi d0, 800
        movi d1, 12345      ; LCG seed
        movi d2, 25173
        movi d3, 13849
        movi d13, 255
        movi d15, 1
        movi d9, 0          ; checksum
        movi d6, 0          ; prev1
        movi d7, 0          ; prev2
sloop:  mul d1, d1, d2
        add d1, d1, d3
        and d4, d1, d13
        addi d4, d4, -128   ; sample x
        add d5, d6, d7
        sar d5, d5, d15     ; pred = (prev1 + prev2) >> 1
        sub d4, d4, d5      ; diff
        movi d10, 7
        lt d11, d10, d4
        jz16 d11, nohi
        mov16 d4, d10       ; clamp high
nohi:   movi d10, -8
        lt d11, d4, d10
        jz16 d11, nolo
        mov16 d4, d10       ; clamp low
nolo:   add d12, d5, d4     ; reconstructed
        mov16 d7, d6
        mov16 d6, d12
        movi d10, 15
        and d11, d4, d10
        add d9, d9, d11
        addi16 d0, -1
        jnz16 d0, sloop
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
        .data
result: .word 0
)";

// 16-tap FIR filter over 96 samples; regular MAC inner loop.
const char* kFir = R"(
; fir - 16-tap FIR filter, 96 output samples
_start: movha a0, hi(x)
        lea a0, a0, lo(x)
        movi d1, 12345
        movi d2, 25173
        movi d3, 13849
        movi d13, 255
        movi d0, 112
xinit:  mul d1, d1, d2
        add d1, d1, d3
        and d4, d1, d13
        stw d4, [a0]0
        lea a0, a0, 4
        addi16 d0, -1
        jnz16 d0, xinit
        movha a0, hi(x)
        lea a0, a0, lo(x)
        movha a1, hi(h)
        lea a1, a1, lo(h)
        movi d0, 96
        movi d9, 0
sloop:  movi d5, 0
        movi d6, 16
        lea a3, a0, 0
        lea a4, a1, 0
tloop:  ldw d7, [a3]0
        ldw d8, [a4]0
        mul d10, d7, d8
        add d5, d5, d10
        lea a3, a3, 4
        lea a4, a4, 4
        addi16 d6, -1
        jnz16 d6, tloop
        add d9, d9, d5
        lea a0, a0, 4
        addi16 d0, -1
        jnz16 d0, sloop
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
        .data
h:      .word 3, -1, 4, 1, -5, 9, -2, 6, 5, -3, 5, 8, -9, 7, 9, -3
result: .word 0
        .bss
x:      .space 448
)";

// Elliptic filter: two cascaded biquad-style sections evaluated in one
// large straight-line block per sample (paper: fast "especially for
// examples with large basic blocks like ellip and subband").
const char* kEllip = R"(
; ellip - cascaded filter sections, 512 samples, large basic blocks
_start: movi d0, 512
        movi d1, 12345
        movi d2, 25173
        movi d3, 13849
        movi d13, 255
        movi d15, 1
        movi d9, 0
        movi d5, 0          ; section 1 state s11
        movi d6, 0          ; section 1 state s12
        movi d7, 0          ; section 2 state s21
        movi d8, 0          ; section 2 state s22
sloop:  mul d1, d1, d2
        add d1, d1, d3
        and d4, d1, d13
        addi d4, d4, -128   ; input sample
        movi d10, 2
        mul d11, d4, d10
        add d12, d11, d5    ; y1 = 2x + s11
        movi d10, 3
        mul d14, d4, d10
        sub d5, d14, d12
        add d5, d5, d6      ; s11' = 3x - y1 + s12
        add d6, d11, d12    ; s12' = 2x + y1
        sar d12, d12, d15   ; y1 >>= 1
        movi d10, 2
        mul d11, d12, d10
        add d4, d11, d7     ; y2 = 2y1 + s21
        movi d10, 3
        mul d14, d12, d10
        sub d7, d14, d4
        add d7, d7, d8      ; s21' = 3y1 - y2 + s22
        add d8, d11, d4     ; s22' = 2y1 + y2
        sar d4, d4, d15
        add d9, d9, d4
        addi16 d0, -1
        jnz16 d0, sloop
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
        .data
result: .word 0
)";

// Two-band subband analysis: 8-tap low/high filters fully unrolled per
// output pair (large straight-line blocks, audio decoding kernel).
const char* kSubband = R"(
; subband - 2-band analysis filter, 8 taps unrolled, 160 output pairs
_start: movha a0, hi(x)
        lea a0, a0, lo(x)
        movi d1, 24321
        movi d2, 25173
        movi d3, 13849
        movi d13, 255
        movi d0, 328
xinit:  mul d1, d1, d2
        add d1, d1, d3
        and d4, d1, d13
        stw d4, [a0]0
        lea a0, a0, 4
        addi16 d0, -1
        jnz16 d0, xinit
        movha a3, hi(x)
        lea a3, a3, lo(x)
        movi d0, 160
        movi d1, 0          ; low-band accumulator
        movi d2, 0          ; high-band accumulator
nloop:  ldw d4, [a3]0
        ldw d5, [a3]4
        ldw d6, [a3]8
        ldw d7, [a3]12
        ldw d8, [a3]16
        ldw d10, [a3]20
        ldw d11, [a3]24
        ldw d12, [a3]28
        movi d14, 3
        mul d15, d4, d14
        add d1, d1, d15
        add d2, d2, d15
        movi d14, 7
        mul d15, d5, d14
        add d1, d1, d15
        sub d2, d2, d15
        movi d14, 11
        mul d15, d6, d14
        add d1, d1, d15
        add d2, d2, d15
        movi d14, 15
        mul d15, d7, d14
        add d1, d1, d15
        sub d2, d2, d15
        movi d14, 15
        mul d15, d8, d14
        add d1, d1, d15
        add d2, d2, d15
        movi d14, 11
        mul d15, d10, d14
        add d1, d1, d15
        sub d2, d2, d15
        movi d14, 7
        mul d15, d11, d14
        add d1, d1, d15
        add d2, d2, d15
        movi d14, 3
        mul d15, d12, d14
        add d1, d1, d15
        sub d2, d2, d15
        lea a3, a3, 8
        addi16 d0, -1
        movi d14, 0
        jne d0, d14, nloop
        add d9, d1, d2
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
        .data
result: .word 0
        .bss
x:      .space 1312
)";

// ---- SoC-scenario programs (beyond the paper's figure set) ---------------
//
// These target the reference board's interrupt path (interrupt controller
// at I/O offset 0x400, programmable timer at 0x500, shared mailbox at
// 0x600 — soc::StandardIoMap). Convention: A14 is the interrupt link
// register and the ISR owns d12..d15; interrupts are sampled at basic-
// block boundaries (see DESIGN.md).

// Interrupt-driven tick counter: the programmable timer raises line 0
// every 400 SoC cycles; the ISR counts ticks in d14; main spins until 8
// ticks arrived, then disarms everything. Checksum: 8*8 + 100 = 164,
// independent of detail level, quantum and execution engine.
const char* kIrqTicks = R"(
; irq_ticks - timer-interrupt tick counter (interrupt-driven scenario)
_start: movha a6, 0xf000      ; I/O region
        movi d14, 0           ; tick count, ISR-owned
        movi d8, 8
        movh d0, hi(isr)
        addi d0, d0, lo(isr)
        stw d0, [a6]0x410     ; intc VECTOR = isr
        movi d0, 1
        stw d0, [a6]0x404     ; intc ENABLE line 0 (timer)
        stw d0, [a6]0x414     ; intc CTRL master enable
        movi d0, 400
        stw d0, [a6]0x500     ; ptimer LOAD = 400 cycles
        movi d0, 3
        stw d0, [a6]0x504     ; ptimer CTRL = enable | periodic
wait:   lt d1, d14, d8
        jnz16 d1, wait        ; spin until the ISR counted 8 ticks
        movi d0, 0
        stw d0, [a6]0x504     ; stop the timer
        stw d0, [a6]0x414     ; master disable
        mul d9, d14, d14
        addi d9, d9, 100      ; checksum = 8*8 + 100
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
isr:    addi16 d14, 1
        movi d15, 1
        stw d15, [a6]0x40c    ; ACK line 0 (write-1-to-clear)
        stw d15, [a6]0x41c    ; EOI (clear in-service)
        ji a14                ; return from interrupt
        .data
result: .word 0
)";

// Multi-core producer (core 0): each timer interrupt produces one value
// n*n + 3 into the shared mailbox (spinning on FULL inside the ISR);
// main waits for 16 productions. Checksum: sum n=1..16 of n^2+3 = 1544.
const char* kMcProducer = R"(
; mc_producer - timer-interrupt mailbox producer (multi-core scenario)
_start: movha a6, 0xf000
        movi d14, 0           ; produced count, ISR-owned
        movi d9, 0            ; running sum, ISR-owned
        movi d8, 16
        movh d0, hi(isr)
        addi d0, d0, lo(isr)
        stw d0, [a6]0x410     ; intc VECTOR = isr
        movi d0, 1
        stw d0, [a6]0x404     ; intc ENABLE line 0 (timer)
        stw d0, [a6]0x414     ; intc CTRL master enable
        movi d0, 300
        stw d0, [a6]0x500     ; ptimer LOAD = 300 cycles
        movi d0, 3
        stw d0, [a6]0x504     ; ptimer CTRL = enable | periodic
pwait:  lt d1, d14, d8
        jnz16 d1, pwait       ; spin until 16 values produced
        movi d0, 0
        stw d0, [a6]0x504     ; stop the timer
        stw d0, [a6]0x414     ; master disable
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0         ; checksum 1544
        halt
isr:    addi16 d14, 1
        mul d15, d14, d14
        addi d15, d15, 3      ; value = n*n + 3
ifull:  ldw d13, [a6]0x604    ; mailbox STATUS
        movi d12, 2
        and d13, d13, d12
        jnz16 d13, ifull      ; spin while the FIFO is full
        stw d15, [a6]0x600    ; push
        add d9, d9, d15
        movi d13, 1
        stw d13, [a6]0x40c    ; ACK line 0
        stw d13, [a6]0x41c    ; EOI
        ji a14
        .data
result: .word 0
)";

// Multi-core consumer (core 1): polls the shared mailbox and sums 16
// values. Checksum 1544 — identical to the producer's, whatever the
// interleaving or quantum.
const char* kMcConsumer = R"(
; mc_consumer - polling mailbox consumer (multi-core scenario)
_start: movha a6, 0xf000
        movi d9, 0
        movi d8, 16
cwait:  ldw d3, [a6]0x604     ; mailbox STATUS
        movi d4, 1
        and d3, d3, d4
        jz16 d3, cwait        ; spin while empty
        ldw d5, [a6]0x600     ; pop
        add d9, d9, d5
        addi16 d8, -1
        jnz16 d8, cwait
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0         ; checksum 1544
        halt
        .data
result: .word 0
)";

// Multi-core compute worker (any core): long private MAC kernel over a
// core-local array, with one shared-bus "progress beacon" (a scratch-
// register write) per outer iteration, so long quantum slices still
// interleave one cross-core transaction each. Used by the N-core
// family() boards (mc_quad, the quantum sweeps of tests/sim_test.cpp).
const char* kMcWorker = R"(
; mc_worker - private MAC compute with a rare shared progress beacon
_start: movha a6, 0xf000      ; I/O region (scratch block at +0x300)
        movha a0, hi(x)
        lea a0, a0, lo(x)
        movi d1, 7777         ; LCG seed
        movi d2, 25173
        movi d3, 13849
        movi d13, 255
        movi d0, 256
xinit:  mul d1, d1, d2
        add d1, d1, d3
        and d4, d1, d13
        stw d4, [a0]0
        lea a0, a0, 4
        addi16 d0, -1
        jnz16 d0, xinit
        movi d0, 400          ; outer iterations
        movi d9, 0            ; running checksum
outer:  movha a3, hi(x)
        lea a3, a3, lo(x)
        movi d6, 256
mac:    ldw d7, [a3]0
        mul d10, d7, d6       ; coefficient = remaining count
        add d9, d9, d10
        lea a3, a3, 4
        addi16 d6, -1
        jnz16 d6, mac
        stw d9, [a6]0x31c     ; progress beacon: scratch register 7
        addi16 d0, -1
        jnz16 d0, outer
        movha a1, hi(result)
        lea a1, a1, lo(result)
        stw d9, [a1]0
        halt
        .data
result: .word 0
        .bss
x:      .space 1024
)";

std::vector<Workload> buildScenarios() {
  std::vector<Workload> w;
  w.push_back({"irq_ticks",
               "timer-interrupt tick counter (interrupt-driven)", kIrqTicks,
               164u, false, "isr"});
  w.push_back({"mc_producer",
               "timer-interrupt mailbox producer (multi-core, core 0)",
               kMcProducer, 1544u, false, "isr"});
  w.push_back({"mc_consumer",
               "polling mailbox consumer (multi-core, core 1)", kMcConsumer,
               1544u, false, ""});
  w.push_back({"mc_worker",
               "private MAC compute with a rare shared progress beacon "
               "(multi-core, any core)",
               kMcWorker, 1644595200u, false, ""});
  return w;
}

std::vector<Workload> buildAll() {
  std::vector<Workload> w;
  w.push_back({"gcd", "subtraction Euclid over a pair table (control flow)",
               kGcd, 214u, false, ""});
  w.push_back({"dpcm",
               "DPCM encoder with clamping branches (audio coding)", kDpcm,
               std::nullopt, false, ""});
  w.push_back({"fir", "16-tap FIR filter (filter kernel)", kFir,
               std::nullopt, false, ""});
  w.push_back({"ellip",
               "cascaded filter sections, one large block per sample",
               kEllip, std::nullopt, true, ""});
  w.push_back({"sieve", "sieve of Eratosthenes, N=700 (control flow)",
               kSieve, 125u, false, ""});
  w.push_back({"subband",
               "two-band analysis filter, 8 taps unrolled (large blocks)",
               kSubband, std::nullopt, true, ""});
  w.push_back({"fibonacci", "iterative Fibonacci (Table 2)", kFibonacci,
               std::nullopt, false, ""});
  return w;
}

}  // namespace

const std::vector<Workload>& all() {
  static const std::vector<Workload>* workloads =
      new std::vector<Workload>(buildAll());
  return *workloads;
}

const std::vector<Workload>& scenarios() {
  static const std::vector<Workload>* workloads =
      new std::vector<Workload>(buildScenarios());
  return *workloads;
}

const Workload& get(std::string_view name) {
  for (const Workload& w : all()) {
    if (w.name == name) {
      return w;
    }
  }
  for (const Workload& w : scenarios()) {
    if (w.name == name) {
      return w;
    }
  }
  CABT_FAIL("unknown workload '" << std::string(name) << "'");
}

std::vector<std::string> figure5Names() {
  return {"gcd", "dpcm", "fir", "ellip", "sieve", "subband"};
}

std::vector<std::string> table2Names() {
  return {"gcd", "fibonacci", "sieve"};
}

elf::Object assemble(const Workload& workload) {
  return trc::assemble(workload.source);
}

uint32_t readChecksum(const elf::Object& source, const SparseMemory& memory,
                      uint32_t remap_delta) {
  const elf::Symbol* sym = source.findSymbol("result");
  CABT_CHECK(sym != nullptr, "workload has no 'result' symbol");
  return memory.read32(sym->value + remap_delta);
}

BoardImages::BoardImages(std::vector<Workload> programs)
    : programs_(std::move(programs)) {
  for (size_t i = 0; i < programs_.size(); ++i) {
    images_.push_back(assemble(programs_[i]));
    if (!programs_[i].irq_handler.empty()) {
      addLeader(i, programs_[i].irq_handler);
    }
  }
}

BoardImages BoardImages::named(const std::vector<std::string>& names) {
  std::vector<Workload> programs;
  for (const std::string& name : names) {
    programs.push_back(get(name));
  }
  return BoardImages(std::move(programs));
}

BoardImages BoardImages::assembled(const std::vector<std::string>& sources) {
  std::vector<Workload> programs(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    programs[i].source = sources[i];
  }
  return BoardImages(std::move(programs));
}

BoardImages BoardImages::family(size_t cores) {
  CABT_CHECK(cores > 0, "a board needs at least one core");
  if (cores == 1) {
    return named({"irq_ticks"});
  }
  std::vector<std::string> names = {"mc_producer", "mc_consumer"};
  names.resize(cores, "mc_worker");
  return named(names);
}

std::vector<const elf::Object*> BoardImages::ptrs() const {
  std::vector<const elf::Object*> out;
  for (const elf::Object& image : images_) {
    out.push_back(&image);
  }
  return out;
}

void BoardImages::addLeader(size_t i, std::string_view symbol) {
  const elf::Symbol* sym = image(i).findSymbol(symbol);
  CABT_CHECK(sym != nullptr, "no symbol '" << std::string(symbol) << "'");
  extra_leaders_.push_back(sym->value);
}

}  // namespace cabt::workloads
