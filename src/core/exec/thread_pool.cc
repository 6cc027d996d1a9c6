#include "core/exec/thread_pool.h"

#include <algorithm>
#include <string>
#include <utility>

namespace ga::exec {

int ThreadPool::HardwareConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads <= 0 ? HardwareConcurrency() : num_threads) {
  bands_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    bands_.push_back(std::make_unique<Band>());
  }
  steals_.resize(num_threads_);
  workers_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Result<std::unique_ptr<ThreadPool>> ThreadPool::Create(int num_threads) {
  if (num_threads <= 0) {
    return Status::InvalidArgument(
        "thread pool needs at least 1 thread, got " +
        std::to_string(num_threads) +
        " (size from ThreadPool::HardwareConcurrency() instead)");
  }
  return std::make_unique<ThreadPool>(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Execute(std::int64_t num_chunks,
                         const std::function<void(std::int64_t)>& body) {
  if (num_chunks <= 0) return;
  if (num_threads_ == 1) {
    // Same contract as the pooled path: every chunk runs even if one
    // throws, and the lowest throwing chunk's exception surfaces after
    // the job drains (ascending order makes the first catch the lowest).
    std::exception_ptr inline_error;
    for (std::int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      try {
        body(chunk);
      } catch (...) {
        if (!inline_error) inline_error = std::current_exception();
      }
    }
    if (inline_error) std::rethrow_exception(inline_error);
    return;
  }

  // Partition [0, num_chunks) into one contiguous band per participant.
  const std::int64_t per_band = num_chunks / num_threads_;
  const std::int64_t remainder = num_chunks % num_threads_;
  std::int64_t begin = 0;
  for (int i = 0; i < num_threads_; ++i) {
    const std::int64_t size = per_band + (i < remainder ? 1 : 0);
    bands_[i]->next.store(begin, std::memory_order_relaxed);
    bands_[i]->end = begin + size;
    begin += size;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &body;
    unfinished_ = num_threads_;
    ++epoch_;
  }
  work_cv_.notify_all();

  RunShare(0, body);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (--unfinished_ > 0) {
      done_cv_.wait(lock, [this] { return unfinished_ == 0; });
    } else {
      done_cv_.notify_all();
    }
    job_ = nullptr;
  }

  // Surface the lowest-chunk exception (if any) on the submitting thread,
  // after every participant finished — never from a worker, which would
  // std::terminate.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    error = std::exchange(error_, nullptr);
    error_chunk_ = -1;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::WorkerLoop(int self) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::int64_t)>* job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    RunShare(self, *job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --unfinished_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::RunShare(int self,
                          const std::function<void(std::int64_t)>& body) {
  // Remaining chunks still run after a throw (the completed-chunk set
  // must not depend on host timing); Execute rethrows the lowest-index
  // capture once the job has drained.
  const auto run_chunk = [&](std::int64_t chunk) {
    try {
      body(chunk);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (error_chunk_ < 0 || chunk < error_chunk_) {
        error_chunk_ = chunk;
        error_ = std::current_exception();
      }
    }
  };
  // Own band first.
  Band& own = *bands_[self];
  for (;;) {
    const std::int64_t chunk = own.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= own.end) break;
    run_chunk(chunk);
  }
  // Then steal round-robin from everyone else.
  for (int offset = 1; offset < num_threads_; ++offset) {
    Band& victim = *bands_[(self + offset) % num_threads_];
    for (;;) {
      const std::int64_t chunk =
          victim.next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= victim.end) break;
      ++steals_[self].count;
      run_chunk(chunk);
    }
  }
}

}  // namespace ga::exec
