// A scripted kernel process for the sim_test and parallel_test kernel
// cases: it logs every activation and re-syncs itself by a fixed period,
// so a test can read the kernel's dispatch order off the log.
#pragma once

#include <string>
#include <vector>

#include "sim/kernel.h"

namespace cabt::test {

/// Logs each activation as "name@now" and re-syncs itself `period`
/// cycles later until it has run `runs` times.
class Recorder : public sim::Process {
 public:
  Recorder(const char* name, sim::Cycle period, int runs,
           std::vector<std::string>* log)
      : sim::Process(name), period_(period), runs_(runs), log_(log) {}

  void activate(sim::Kernel& kernel) override {
    log_->push_back(name() + "@" + std::to_string(kernel.now()));
    if (--runs_ > 0) {
      kernel.sync(this, kernel.now() + period_);
    }
  }

 private:
  sim::Cycle period_;
  int runs_;
  std::vector<std::string>* log_;
};

}  // namespace cabt::test
