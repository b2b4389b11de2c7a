#include "sim/host_pool.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cabt::sim {

class HostPool::Impl {
 public:
  explicit Impl(unsigned workers) {
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { workerLoop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) {
      t.join();
    }
  }

  void runAll(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      total_ = n;
      next_ = 0;
      live_ = n;
      error_ = nullptr;
    }
    work_cv_.notify_all();
    for (;;) {
      size_t task = 0;
      bool have = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (next_ < total_) {
          task = next_++;
          have = true;
        }
      }
      if (!have) {
        break;
      }
      runOne(fn, task);
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return live_ == 0; });
    fn_ = nullptr;
    if (error_ != nullptr) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(threads_.size());
  }

 private:
  void runOne(const std::function<void(size_t)>& fn, size_t task) {
    std::exception_ptr error;
    try {
      fn(task);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (error != nullptr && error_ == nullptr) {
      error_ = error;
    }
    if (--live_ == 0) {
      done_cv_.notify_all();
    }
  }

  void workerLoop() {
    for (;;) {
      const std::function<void(size_t)>* fn = nullptr;
      size_t task = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] {
          return stopping_ || (fn_ != nullptr && next_ < total_);
        });
        if (stopping_) {
          return;
        }
        fn = fn_;
        task = next_++;
      }
      runOne(*fn, task);
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t total_ = 0;
  size_t next_ = 0;
  size_t live_ = 0;
  std::exception_ptr error_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

HostPool::HostPool(unsigned workers)
    : impl_(std::make_unique<Impl>(workers)) {}

HostPool::~HostPool() = default;

void HostPool::runAll(size_t n, const std::function<void(size_t)>& fn) {
  impl_->runAll(n, fn);
}

unsigned HostPool::workers() const { return impl_->workers(); }

}  // namespace cabt::sim
