#include "faults/faults.h"

#include <chrono>
#include <csignal>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/rng.h"

namespace ga::faults {

namespace {

Result<std::int64_t> ParseInt(const std::string& key,
                              const std::string& value) {
  try {
    std::size_t used = 0;
    const long long parsed = std::stoll(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return static_cast<std::int64_t>(parsed);
  } catch (const std::exception&) {
    return Status::InvalidArgument("fault plan: bad value for " + key +
                                   ": '" + value + "'");
  }
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string field = spec.substr(begin, end - begin);
    begin = end + 1;
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault plan: expected key=value, got '" +
                                     field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    GA_ASSIGN_OR_RETURN(const std::int64_t parsed, ParseInt(key, value));
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parsed);
    } else if (key == "crash_at_superstep") {
      plan.crash_at_superstep = static_cast<int>(parsed);
    } else if (key == "kill_at_superstep") {
      plan.kill_at_superstep = static_cast<int>(parsed);
    } else if (key == "alloc_fail_at_charge") {
      plan.alloc_fail_at_charge = parsed;
    } else if (key == "abort_at_loop") {
      plan.abort_at_loop = parsed;
    } else if (key == "stall_at_loop") {
      plan.stall_at_loop = parsed;
    } else if (key == "stall_ms") {
      plan.stall_ms = static_cast<int>(parsed);
    } else if (key == "corrupt_read") {
      plan.corrupt_read = parsed != 0;
    } else {
      return Status::InvalidArgument("fault plan: unknown key '" + key + "'");
    }
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::vector<std::string> fields;
  if (seed != 0) fields.push_back("seed=" + std::to_string(seed));
  if (crash_at_superstep >= 0) {
    fields.push_back("crash_at_superstep=" +
                     std::to_string(crash_at_superstep));
  }
  if (kill_at_superstep >= 0) {
    fields.push_back("kill_at_superstep=" + std::to_string(kill_at_superstep));
  }
  if (alloc_fail_at_charge >= 0) {
    fields.push_back("alloc_fail_at_charge=" +
                     std::to_string(alloc_fail_at_charge));
  }
  if (abort_at_loop >= 0) {
    fields.push_back("abort_at_loop=" + std::to_string(abort_at_loop));
  }
  if (stall_at_loop >= 0) {
    fields.push_back("stall_at_loop=" + std::to_string(stall_at_loop));
    fields.push_back("stall_ms=" + std::to_string(stall_ms));
  }
  if (corrupt_read) fields.push_back("corrupt_read=1");
  std::string result;
  for (const std::string& field : fields) {
    if (!result.empty()) result += ',';
    result += field;
  }
  return result;
}

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan) {
  // The seed picks WHICH chunk of the targeted dispatch misbehaves. The
  // range [0, kScratchSlots) keeps the pick inside even the narrowest
  // slot decompositions engines use, so a targeted fault cannot silently
  // miss a loop that capped its slots.
  SplitMix64 rng(plan.seed ^ 0x5D5D1356E0AFB4A1ULL);
  abort_slot_ = static_cast<int>(rng.NextBounded(8));
  stall_slot_ = static_cast<int>(rng.NextBounded(8));
}

Status FaultInjector::OnSuperstep(int superstep) {
  if (superstep == plan_.kill_at_superstep) {
    // The CI crash/restart harness: genuinely die mid-job, exactly where
    // a checkpoint boundary was just crossed. No cleanup, no flush — the
    // restart path must cope with precisely this.
    std::raise(SIGKILL);
  }
  if (superstep == plan_.crash_at_superstep) {
    return Status::Aborted("injected machine crash at superstep " +
                           std::to_string(superstep));
  }
  return Status::Ok();
}

Status FaultInjector::OnMemoryCharge() {
  const std::int64_t ordinal =
      charge_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (ordinal == plan_.alloc_fail_at_charge) {
    return Status::OutOfMemory("injected allocation failure at charge " +
                               std::to_string(ordinal));
  }
  return Status::Ok();
}

void FaultInjector::OnParallelLoop() {
  const std::int64_t ordinal =
      loop_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (ordinal == plan_.abort_at_loop) {
    abort_armed_.store(true, std::memory_order_relaxed);
  }
  if (ordinal == plan_.stall_at_loop) {
    stall_armed_.store(true, std::memory_order_relaxed);
  }
}

void FaultInjector::OnParallelChunk(int slot) {
  if (stall_armed_.load(std::memory_order_relaxed) && slot == stall_slot_ &&
      stall_armed_.exchange(false, std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.stall_ms));
  }
  if (abort_armed_.load(std::memory_order_relaxed) && slot == abort_slot_ &&
      abort_armed_.exchange(false, std::memory_order_relaxed)) {
    throw StatusException(Status::Aborted(
        "injected worker-chunk abort (dispatch " +
        std::to_string(loops_dispatched()) + ", slot " +
        std::to_string(slot) + ")"));
  }
}

Status FaultInjector::OnStoreRead(const std::string& path) {
  if (plan_.corrupt_read) {
    return Status::IoError("injected corruption reading " + path);
  }
  return Status::Ok();
}

}  // namespace ga::faults
