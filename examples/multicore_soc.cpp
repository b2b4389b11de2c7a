// Multi-core SoC walkthrough: two TRC32 cores on the event-kernel-hosted
// reference board, coupled through the shared mailbox peripheral, with
// core 0 paced by the programmable timer's interrupt.
//
//   * core 0 (producer): every timer IRQ (line 0) produces one value
//     n*n + 3 into the mailbox from its interrupt handler;
//   * core 1 (consumer): polls the mailbox and sums 16 values.
//
// Both cores run temporally decoupled: each executes up to one quantum
// of SoC cycles before yielding back to the kernel, which always resumes
// the core with the smallest local time. Run it twice with different
// quanta to see the speed/accuracy knob: the checksums never change, the
// modelled completion times drift within one quantum. Exits 1 unless both
// cores halt with both checksums at 1544 at every quantum.
#include <cstdio>

#include "platform/platform.h"
#include "workloads/workloads.h"

int main() {
  using namespace cabt;

  const arch::ArchDescription desc = arch::ArchDescription::defaultTc10gp();
  const auto images =
      workloads::BoardImages::named({"mc_producer", "mc_consumer"});
  const elf::Object& producer = images.image(0);
  const elf::Object& consumer = images.image(1);

  constexpr uint32_t kExpectedChecksum = 1544;
  bool ok = true;
  for (const sim::Cycle quantum : {16u, 1024u}) {
    platform::BoardConfig cfg;
    // The interrupt handler is only reachable through the controller's
    // vector register, so its entry must be declared a block leader.
    cfg.iss.extra_leaders = images.extraLeaders();
    cfg.quantum = quantum;
    platform::ReferenceBoard board(desc, images.ptrs(), cfg);
    const iss::StopReason reason = board.run();

    std::printf("quantum %4llu: %s\n",
                static_cast<unsigned long long>(quantum),
                reason == iss::StopReason::kHalted ? "both cores halted"
                                                   : "did not halt");
    std::printf("  core 0 (producer): %8llu cycles, %5llu instructions, "
                "%llu interrupts taken\n",
                static_cast<unsigned long long>(board.core(0).stats().cycles),
                static_cast<unsigned long long>(
                    board.core(0).stats().instructions),
                static_cast<unsigned long long>(
                    board.core(0).stats().irqs_taken));
    std::printf("  core 1 (consumer): %8llu cycles, %5llu instructions\n",
                static_cast<unsigned long long>(board.core(1).stats().cycles),
                static_cast<unsigned long long>(
                    board.core(1).stats().instructions));
    std::printf("  mailbox: %llu pushes, %llu left; timer expiries: %llu; "
                "kernel events: %llu\n",
                static_cast<unsigned long long>(board.mailbox().pushes()),
                static_cast<unsigned long long>(board.mailbox().depth()),
                static_cast<unsigned long long>(board.ptimer().expiries()),
                static_cast<unsigned long long>(
                    board.kernel().eventsDispatched()));
    const uint32_t produced =
        workloads::readChecksum(producer, board.core(0).memory());
    const uint32_t consumed =
        workloads::readChecksum(consumer, board.core(1).memory());
    std::printf("  checksums: producer %u, consumer %u (expected %u)\n\n",
                produced, consumed, kExpectedChecksum);
    ok = ok && reason == iss::StopReason::kHalted &&
         produced == kExpectedChecksum && consumed == kExpectedChecksum;
  }
  std::printf("(the checksums are quantum-independent; the cycle counts "
              "drift within one quantum — the loosely-timed accuracy "
              "trade-off)\n");
  return ok ? 0 : 1;
}
