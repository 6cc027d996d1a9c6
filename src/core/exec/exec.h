// ga::exec — deterministic host-parallel execution primitives.
//
// The contract (DESIGN.md §6): every parallel construct decomposes its
// index range into a fixed sequence of *slots* whose count depends only on
// the range size — never on the host thread count. A slot is one
// contiguous sub-range executed by exactly one thread; per-slot results
// (reductions, emitted buffers, work-ledger charges) are merged in slot
// order after the loop. Because the decomposition and the merge order are
// both thread-count independent, algorithm outputs AND simulated-cost
// accounting are bit-identical whether a job runs on 1 or N host threads.
//
// parallel_for(ctx, begin, end, body)        body(const Slice&)
// parallel_reduce(ctx, begin, end, id, m, r) per-slot map + ordered reduce
// parallel_sort(ctx, &items, less)           chunk sort + stable merge tree
// SlotBuffers<T>                             per-slot appends, ordered drain
#ifndef GRAPHALYTICS_CORE_EXEC_EXEC_H_
#define GRAPHALYTICS_CORE_EXEC_EXEC_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/exec/cancel.h"
#include "core/exec/counter_sheet.h"
#include "core/exec/thread_pool.h"
#include "faults/faults.h"

namespace ga::exec {

/// One slot of a parallel loop: the contiguous sub-range [begin, end) and
/// the slot index that keys every side effect of the body.
struct Slice {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  int slot = 0;
};

/// Execution handle carried by a job: a (possibly absent) thread pool plus
/// the slot-decomposition policy. With no pool the constructs run the same
/// slot sequence inline, so serial and parallel runs are byte-equivalent.
class ExecContext {
 public:
  /// Hard cap on slots per loop. More slots than threads keeps the
  /// work-stealing balanced on skewed ranges; the cap bounds per-slot
  /// scratch (flag arrays, histograms) and merge cost.
  static constexpr int kMaxSlots = 32;
  /// Minimum items per slot; tiny ranges collapse to one slot.
  static constexpr std::int64_t kMinGrain = 64;
  /// Recommended max_slots for loops whose bodies allocate O(range)
  /// scratch (e.g. LCC neighbourhood flag arrays): bounds the total
  /// scratch allocated/zeroed at 8x the serial cost.
  static constexpr int kScratchSlots = 8;

  ExecContext() = default;
  explicit ExecContext(ThreadPool* pool) : pool_(pool) {}

  ThreadPool* pool() const { return pool_; }
  int num_host_threads() const { return pool_ ? pool_->num_threads() : 1; }

  /// Attaches an observability sheet (nullptr detaches — the default).
  /// With a sheet attached, parallel_for/parallel_reduce time each chunk
  /// they dispatch; without one, the only cost is a pointer test. The
  /// sheet never influences decomposition or scheduling.
  void set_counters(CounterSheet* sheet) { counters_ = sheet; }
  CounterSheet* counters() const { return counters_; }

  /// Attaches a cooperative cancellation token (nullptr — the default —
  /// detaches). With a token attached, every chunk a parallel construct
  /// dispatches tests it BEFORE running its body and throws the token's
  /// StatusException (kCancelled / kDeadlineExceeded) when tripped; the
  /// ThreadPool surfaces the lowest-index chunk's exception on the
  /// submitting thread and the platform job boundary converts it to a
  /// Status. Remaining chunks still "run" (the pool's no-early-abort
  /// contract) but each throws at its first instruction, so a cancelled
  /// job stops within one chunk's work, not one superstep's.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }

  /// Attaches the job's fault injector (nullptr — the default — detaches).
  /// With one attached, every parallel_for/parallel_reduce dispatch calls
  /// OnParallelLoop once on the submitting thread before any chunk, and
  /// every chunk calls OnParallelChunk after its cancel check and before
  /// its body, which may throw an injected abort. The inline path makes
  /// the same calls, so a plan fails the same chunk at any thread count.
  void set_faults(faults::FaultInjector* injector) { faults_ = injector; }
  faults::FaultInjector* faults() const { return faults_; }

  /// Slot count for a range of `size` items — a function of the size
  /// (and an optional per-call-site cap) alone, never of the thread
  /// count, which is what makes the decomposition deterministic. Loops
  /// whose bodies carry O(n) per-slot scratch pass a lower `max_slots`
  /// to bound the scratch-allocation multiplier.
  static int NumSlots(std::int64_t size, int max_slots = kMaxSlots) {
    if (size <= 0) return 0;
    const std::int64_t by_grain = (size + kMinGrain - 1) / kMinGrain;
    return static_cast<int>(std::min<std::int64_t>(max_slots, by_grain));
  }

  /// The `slot`-th of `num_slots` near-equal contiguous sub-ranges of
  /// [begin, end).
  static Slice SliceOf(std::int64_t begin, std::int64_t end, int slot,
                       int num_slots) {
    const std::int64_t size = end - begin;
    const std::int64_t base = size / num_slots;
    const std::int64_t remainder = size % num_slots;
    const std::int64_t slice_begin =
        begin + base * slot + std::min<std::int64_t>(slot, remainder);
    const std::int64_t slice_size = base + (slot < remainder ? 1 : 0);
    return Slice{slice_begin, slice_begin + slice_size, slot};
  }

 private:
  ThreadPool* pool_ = nullptr;
  CounterSheet* counters_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  faults::FaultInjector* faults_ = nullptr;
};

static_assert(CounterSheet::kMaxSlots >= ExecContext::kMaxSlots,
              "CounterSheet rows must cover every exec slot");

/// Runs body(slice) for every slot of [begin, end). Bodies may only write
/// to locations owned by their slot (slot-indexed accumulators, their
/// sub-range of an output array); cross-slot state must go through
/// SlotBuffers or per-slot partials merged after the call.
template <typename Body>
void parallel_for(ExecContext& ctx, std::int64_t begin, std::int64_t end,
                  Body&& body, int max_slots = ExecContext::kMaxSlots) {
  const int num_slots = ExecContext::NumSlots(end - begin, max_slots);
  if (num_slots == 0) return;
  CounterSheet* const sheet = ctx.counters();
  if (sheet != nullptr) sheet->NoteLoop();
  faults::FaultInjector* const faults = ctx.faults();
  if (faults != nullptr) faults->OnParallelLoop();
  const CancelToken* const cancel = ctx.cancel_token();
  // The timed and untimed paths run the identical slot sequence; timing
  // wraps the body without touching the decomposition.
  const auto run = [&](int slot) {
    if (cancel != nullptr && cancel->stop_requested()) {
      throw StatusException(cancel->status());
    }
    if (faults != nullptr) faults->OnParallelChunk(slot);
    if (sheet != nullptr) {
      const std::int64_t chunk_begin = sheet->NowTicks();
      body(ExecContext::SliceOf(begin, end, slot, num_slots));
      sheet->NoteChunk(slot, chunk_begin, sheet->NowTicks());
    } else {
      body(ExecContext::SliceOf(begin, end, slot, num_slots));
    }
  };
  if (ctx.pool() == nullptr || num_slots == 1 ||
      ctx.num_host_threads() == 1) {
    for (int slot = 0; slot < num_slots; ++slot) {
      run(slot);
    }
    return;
  }
  ctx.pool()->Execute(num_slots,
                      [&](std::int64_t slot) { run(static_cast<int>(slot)); });
}

/// Per-slot map + reduction merged in slot order. `map(slice, acc)`
/// accumulates into the slot's accumulator (initialised to `identity`);
/// `reduce(into, from)` folds the accumulators left-to-right. For
/// floating-point types the grouping is fixed by the slot decomposition,
/// so the result is identical at any thread count.
/// parallel_reduce with caller-owned accumulator scratch. Loops that run
/// once per superstep hoist `partials` out of the iteration so the
/// per-slot accumulators are reset, not reallocated — part of the
/// steady-state zero-allocation contract (DESIGN.md §8).
template <typename T, typename Map, typename Reduce>
T parallel_reduce(ExecContext& ctx, std::int64_t begin, std::int64_t end,
                  T identity, Map&& map, Reduce&& reduce,
                  std::vector<T>* partials,
                  int max_slots = ExecContext::kMaxSlots) {
  const int num_slots = ExecContext::NumSlots(end - begin, max_slots);
  if (num_slots == 0) return identity;
  partials->assign(num_slots, identity);
  parallel_for(
      ctx, begin, end,
      [&](const Slice& slice) { map(slice, (*partials)[slice.slot]); },
      max_slots);
  T result = std::move(identity);
  for (int slot = 0; slot < num_slots; ++slot) {
    reduce(result, (*partials)[slot]);
  }
  return result;
}

template <typename T, typename Map, typename Reduce>
T parallel_reduce(ExecContext& ctx, std::int64_t begin, std::int64_t end,
                  T identity, Map&& map, Reduce&& reduce,
                  int max_slots = ExecContext::kMaxSlots) {
  std::vector<T> partials;
  return parallel_reduce(ctx, begin, end, std::move(identity),
                         std::forward<Map>(map), std::forward<Reduce>(reduce),
                         &partials, max_slots);
}

/// Append-only per-slot buffers. A parallel producer loop appends through
/// buf(slot); the ordered drain then replays the elements exactly as a
/// serial loop over the same range would have emitted them (slots are
/// contiguous ascending sub-ranges).
template <typename T>
class SlotBuffers {
 public:
  void Reset(int num_slots) {
    per_slot_.resize(num_slots);
    for (auto& buffer : per_slot_) buffer.clear();
  }
  int num_slots() const { return static_cast<int>(per_slot_.size()); }
  std::vector<T>& buf(int slot) { return per_slot_[slot]; }

  std::size_t TotalSize() const {
    std::size_t total = 0;
    for (const auto& buffer : per_slot_) total += buffer.size();
    return total;
  }

  /// Visits every element in slot order (== serial emission order).
  template <typename Fn>
  void Drain(Fn&& fn) const {
    for (const auto& buffer : per_slot_) {
      for (const T& item : buffer) fn(item);
    }
  }

  /// Appends all elements to `out` in slot order.
  void MergeInto(std::vector<T>* out) const {
    out->reserve(out->size() + TotalSize());
    for (const auto& buffer : per_slot_) {
      out->insert(out->end(), buffer.begin(), buffer.end());
    }
  }

 private:
  std::vector<std::vector<T>> per_slot_;
};

/// Deterministic parallel sort: per-slot std::sort, then a stable merge
/// tree (ties keep the left run first). The run boundaries come from the
/// slot decomposition, so the permutation of equal keys is identical at
/// any thread count — which keeps downstream dedup decisions stable.
template <typename T, typename Less>
void parallel_sort(ExecContext& ctx, std::vector<T>* items, Less less) {
  const std::int64_t size = static_cast<std::int64_t>(items->size());
  const int num_slots = ExecContext::NumSlots(size);
  if (num_slots <= 1) {
    std::sort(items->begin(), items->end(), less);
    return;
  }
  std::vector<std::int64_t> bounds;
  bounds.reserve(num_slots + 1);
  for (int slot = 0; slot <= num_slots; ++slot) {
    bounds.push_back(slot < num_slots
                         ? ExecContext::SliceOf(0, size, slot, num_slots).begin
                         : size);
  }
  parallel_for(ctx, 0, size, [&](const Slice& slice) {
    std::sort(items->begin() + slice.begin, items->begin() + slice.end, less);
  });

  // Merge adjacent runs pairwise until one run remains. Each round merges
  // disjoint output ranges, so pairs run in parallel.
  std::vector<T> scratch(items->size());
  std::vector<T>* source = items;
  std::vector<T>* target = &scratch;
  while (bounds.size() > 2) {
    const std::int64_t num_pairs =
        static_cast<std::int64_t>(bounds.size() - 1) / 2;
    const bool has_tail = (bounds.size() - 1) % 2 != 0;
    auto merge_pair = [&](std::int64_t pair) {
      const std::int64_t lo = bounds[2 * pair];
      const std::int64_t mid = bounds[2 * pair + 1];
      const std::int64_t hi = bounds[2 * pair + 2];
      std::merge(source->begin() + lo, source->begin() + mid,
                 source->begin() + mid, source->begin() + hi,
                 target->begin() + lo, less);
    };
    if (ctx.pool() != nullptr && num_pairs > 1 &&
        ctx.num_host_threads() > 1) {
      ctx.pool()->Execute(num_pairs, merge_pair);
    } else {
      for (std::int64_t pair = 0; pair < num_pairs; ++pair) merge_pair(pair);
    }
    if (has_tail) {
      const std::int64_t lo = bounds[bounds.size() - 2];
      const std::int64_t hi = bounds[bounds.size() - 1];
      std::copy(source->begin() + lo, source->begin() + hi,
                target->begin() + lo);
    }
    std::vector<std::int64_t> next_bounds;
    next_bounds.reserve(bounds.size() / 2 + 2);
    for (std::size_t i = 0; i < bounds.size(); i += 2) {
      next_bounds.push_back(bounds[i]);
    }
    if (next_bounds.back() != size) next_bounds.push_back(size);
    bounds.swap(next_bounds);
    std::swap(source, target);
  }
  if (source != items) {
    items->swap(scratch);
  }
}

}  // namespace ga::exec

#endif  // GRAPHALYTICS_CORE_EXEC_EXEC_H_
