// Standard peripheral assembly used by both sides of every comparison:
// the reference board (ISS) and the emulation platform attach the same
// devices at the same offsets inside the source processor's I/O region.
//
// Devices attach to the bus directly. Device stall/timeout injection
// (DESIGN.md section 12) is a bus fault window over the device's range
// (SocBus::deviceRange), so an unfaulted board carries no fault-injection
// state at all.
#pragma once

#include "arch/arch.h"
#include "soc/bus.h"
#include "soc/peripherals.h"

namespace cabt::soc {

struct StandardPeripherals {
  SocBus bus;
  TimerDevice timer;
  CharDevice chardev;
  ScratchDevice scratch;

  /// Attaches the devices at the standard offsets inside `io_base`.
  explicit StandardPeripherals(uint32_t io_base) {
    bus.attach(&timer, io_base + StandardIoMap::kTimerOffset,
               StandardIoMap::kTimerSize);
    bus.attach(&chardev, io_base + StandardIoMap::kCharOffset,
               StandardIoMap::kCharSize);
    bus.attach(&scratch, io_base + StandardIoMap::kScratchOffset,
               StandardIoMap::kScratchSize);
  }

  static uint32_t ioBase(const arch::ArchDescription& desc) {
    const MemRegion* io = desc.memory_map.findNamed("io");
    CABT_CHECK(io != nullptr, "architecture has no 'io' region");
    return io->base;
  }
};

}  // namespace cabt::soc
