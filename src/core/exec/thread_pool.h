// ThreadPool: persistent host worker threads with work-stealing chunk
// scheduling.
//
// The pool executes a *chunked job*: body(chunk) for every chunk index in
// [0, num_chunks). Chunks are pre-partitioned into contiguous bands, one
// per participant (the calling thread participates); a participant drains
// its own band first and then steals remaining chunks from other bands.
// WHICH thread runs a chunk is unspecified — callers that need
// determinism must key all side effects by chunk index, never by thread
// (see exec.h, which layers a fixed slot decomposition on top).
//
// This is the real host-parallelism substrate of the reproduction; it is
// unrelated to the *simulated* workers of ga::sysmodel, which remain a
// pure cost model.
#ifndef GRAPHALYTICS_CORE_EXEC_THREAD_POOL_H_
#define GRAPHALYTICS_CORE_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/status.h"

namespace ga::exec {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total participants (including the
  /// caller of Execute). num_threads <= 0 selects the hardware
  /// concurrency. A pool of 1 runs every job inline.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  /// Validating factory: rejects a non-positive thread count with
  /// kInvalidArgument instead of the constructor's silent fall-back to
  /// the hardware concurrency. Entry point for explicitly user-supplied
  /// counts (a `--jobs 0` typo should be an error, not a 64-thread pool).
  static Result<std::unique_ptr<ThreadPool>> Create(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(chunk) for every chunk in [0, num_chunks), blocking until
  /// all chunks completed. The calling thread participates. Bodies must
  /// not call Execute on the same pool (jobs do not nest).
  ///
  /// A body that throws no longer terminates the process: every chunk
  /// still runs (no early abort — the completed-chunk set must not depend
  /// on host timing), and after the job the exception of the LOWEST
  /// throwing chunk index is rethrown on the submitting thread. Combined
  /// with the ascending inline path this makes the surfaced exception
  /// identical at any thread count whenever throwing is a deterministic
  /// property of a chunk. The platform layer converts it to a Status at
  /// the job boundary (StatusException carries one verbatim).
  void Execute(std::int64_t num_chunks,
               const std::function<void(std::int64_t)>& body);

  /// Chunks executed by a participant from some other participant's band,
  /// summed over the pool's lifetime. Each participant counts its own
  /// steals in a padded slot (no contention; steals are rare by design),
  /// so call this only between Execute calls, where the count is exact.
  /// Steal totals depend on host timing — observability only, never an
  /// input to anything deterministic.
  std::uint64_t TotalSteals() const {
    std::uint64_t total = 0;
    for (const StealCounter& counter : steals_) total += counter.count;
    return total;
  }

  static int HardwareConcurrency();

 private:
  // One contiguous band of chunks. Owned by one participant, but any
  // participant may steal from it: claiming is a fetch_add on `next`,
  // valid while the claimed index is below `end`.
  struct Band {
    std::atomic<std::int64_t> next{0};
    std::int64_t end = 0;
  };

  // Self-written only (participant i touches steals_[i] alone), padded so
  // the slots never share a cache line.
  struct alignas(64) StealCounter {
    std::uint64_t count = 0;
  };

  void WorkerLoop(int self);
  /// Drains band `self`, then steals from the other bands round-robin.
  void RunShare(int self, const std::function<void(std::int64_t)>& body);

  int num_threads_;
  std::vector<std::unique_ptr<Band>> bands_;
  std::vector<StealCounter> steals_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::int64_t)>* job_ = nullptr;
  std::uint64_t epoch_ = 0;  // bumped per job; workers wait on it
  int unfinished_ = 0;
  bool shutdown_ = false;

  // First-by-chunk-index exception capture for the current job. Guarded
  // by error_mutex_ (taken only on the throw path — errors are rare).
  std::mutex error_mutex_;
  std::exception_ptr error_;
  std::int64_t error_chunk_ = -1;
};

}  // namespace ga::exec

#endif  // GRAPHALYTICS_CORE_EXEC_THREAD_POOL_H_
