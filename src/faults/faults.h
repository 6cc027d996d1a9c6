// ga::faults — seed-deterministic fault injection (DESIGN.md §13).
//
// A FaultPlan names the failures to inject into one job; a FaultInjector
// fires them at deterministic points keyed by counters that are
// themselves host-thread invariant (superstep index, parallel-loop
// dispatch ordinal, memory-charge ordinal) plus a SplitMix64 stream
// seeded by the plan — so the same plan reproduces the same failure
// sequence at any `--jobs` value, which is what makes chaos runs
// debuggable and the CI smoke assertable.
//
// Failure classes (docs/ROBUSTNESS.md has the full taxonomy):
//   crash_at_superstep=K    simulated machine crash at the end of
//                           superstep K (kAborted from EndSuperstep)
//   kill_at_superstep=K     REAL process death (SIGKILL) at the end of
//                           superstep K — the CI crash/restart harness
//   alloc_fail_at_charge=N  the Nth JobContext::ChargeMemory fails with
//                           kOutOfMemory (injected allocation failure)
//   abort_at_loop=N         one chunk of the Nth parallel dispatch throws
//                           (exercises ThreadPool exception propagation)
//   stall_at_loop=N         one chunk of the Nth parallel dispatch sleeps
//                           stall_ms (wall-clock only; outputs unchanged)
//   corrupt_read=1          every checkpoint read reports a checksum
//                           mismatch (kIoError)
//
// An injector rides one job, like its cancel token: the caller sets
// platform::ExecutionEnvironment::faults, the JobContext consults it at
// superstep ends, memory charges and checkpoint reads, and hands it to
// the job's exec::ExecContext for the parallel-loop points. Nothing else
// sees it, so jobs that run side by side never share a fault.
#ifndef GRAPHALYTICS_FAULTS_FAULTS_H_
#define GRAPHALYTICS_FAULTS_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "core/status.h"

namespace ga::faults {

struct FaultPlan {
  /// Seeds the stream that picks WHICH chunk of a targeted dispatch
  /// aborts/stalls; two plans with equal triggers but different seeds are
  /// different (reproducible) failure sequences.
  std::uint64_t seed = 0;
  int crash_at_superstep = -1;
  int kill_at_superstep = -1;
  std::int64_t alloc_fail_at_charge = -1;
  std::int64_t abort_at_loop = -1;
  std::int64_t stall_at_loop = -1;
  int stall_ms = 25;
  bool corrupt_read = false;

  bool empty() const {
    return crash_at_superstep < 0 && kill_at_superstep < 0 &&
           alloc_fail_at_charge < 0 && abort_at_loop < 0 &&
           stall_at_loop < 0 && !corrupt_read;
  }

  /// Parses "key=value[,key=value...]" with the keys named above, e.g.
  /// "crash_at_superstep=3,seed=7". Unknown keys are kInvalidArgument.
  static Result<FaultPlan> Parse(const std::string& spec);
  /// Canonical spec string (Parse(ToString()) round-trips).
  std::string ToString() const;
};

/// Fires a plan's faults at the injection points of the job it rides.
/// Counter state is cumulative over the injector's lifetime: a
/// hardened-runner retry that reuses the injector does NOT re-fire
/// one-shot ordinal faults (abort_at_loop), which is exactly the
/// transient-failure shape bounded retry exists for. Superstep-keyed
/// faults (crash/kill) re-fire every attempt: they model deterministic
/// failures that retry cannot fix.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  /// End of superstep `superstep` (1-based, the value after increment).
  /// kAborted on an injected machine crash; raises SIGKILL for kill
  /// plans.
  Status OnSuperstep(int superstep);

  /// Before one JobContext::ChargeMemory. kOutOfMemory on the plan's
  /// charge ordinal (1-based).
  Status OnMemoryCharge();

  /// One parallel_for/parallel_reduce dispatch (submitting thread).
  void OnParallelLoop();

  /// Before one chunk body. Throws StatusException(kAborted) on the
  /// targeted (dispatch, chunk); sleeps for stall plans.
  void OnParallelChunk(int slot);

  /// Before a checkpoint read (JobContext::MaybeRestore). kIoError when
  /// the plan corrupts reads.
  Status OnStoreRead(const std::string& path);

  /// Deterministic ordinal counters, exposed so tests can assert that a
  /// replayed plan fires at identical points.
  std::int64_t loops_dispatched() const {
    return loop_count_.load(std::memory_order_relaxed);
  }
  std::int64_t charges_seen() const {
    return charge_count_.load(std::memory_order_relaxed);
  }

 private:
  FaultPlan plan_;
  std::atomic<std::int64_t> loop_count_{0};
  std::atomic<std::int64_t> charge_count_{0};
  std::atomic<bool> abort_armed_{false};
  std::atomic<bool> stall_armed_{false};
  int abort_slot_ = 0;
  int stall_slot_ = 0;
};

}  // namespace ga::faults

#endif  // GRAPHALYTICS_FAULTS_FAULTS_H_
