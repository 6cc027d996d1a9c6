// FaultPlan spec parsing and the injector's deterministic trigger points.
#include "faults/faults.h"

#include <gtest/gtest.h>

#include <string>

namespace ga::faults {
namespace {

TEST(FaultPlanTest, ParsesEveryKey) {
  auto plan = FaultPlan::Parse(
      "seed=7,crash_at_superstep=3,kill_at_superstep=5,"
      "alloc_fail_at_charge=11,abort_at_loop=2,stall_at_loop=4,"
      "stall_ms=250,corrupt_read=1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_EQ(plan->crash_at_superstep, 3);
  EXPECT_EQ(plan->kill_at_superstep, 5);
  EXPECT_EQ(plan->alloc_fail_at_charge, 11);
  EXPECT_EQ(plan->abort_at_loop, 2);
  EXPECT_EQ(plan->stall_at_loop, 4);
  EXPECT_EQ(plan->stall_ms, 250);
  EXPECT_TRUE(plan->corrupt_read);
  EXPECT_FALSE(plan->empty());
}

TEST(FaultPlanTest, ToStringRoundTrips) {
  auto plan = FaultPlan::Parse("crash_at_superstep=3,seed=99");
  ASSERT_TRUE(plan.ok());
  auto reparsed = FaultPlan::Parse(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << "ToString() not parseable: "
                             << plan->ToString();
  EXPECT_EQ(reparsed->ToString(), plan->ToString());
  EXPECT_EQ(reparsed->crash_at_superstep, 3);
  EXPECT_EQ(reparsed->seed, 99u);
}

TEST(FaultPlanTest, UnknownKeyIsInvalidArgument) {
  auto plan = FaultPlan::Parse("crash_at_superstep=3,flux_capacitor=1");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, MalformedPairIsInvalidArgument) {
  EXPECT_FALSE(FaultPlan::Parse("crash_at_superstep").ok());
  EXPECT_FALSE(FaultPlan::Parse("crash_at_superstep=abc").ok());
  EXPECT_FALSE(FaultPlan::Parse("=3").ok());
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->empty());
}

TEST(FaultInjectorTest, SuperstepCrashFiresAtExactlyThePlannedStep) {
  FaultPlan plan;
  plan.crash_at_superstep = 3;
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.OnSuperstep(1).ok());
  EXPECT_TRUE(injector.OnSuperstep(2).ok());
  Status crashed = injector.OnSuperstep(3);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.code(), StatusCode::kAborted);
  // Superstep faults re-fire: a retry hits the same wall.
  EXPECT_FALSE(injector.OnSuperstep(3).ok());
}

TEST(FaultInjectorTest, ChargeOrdinalFiresOnceAcrossInjectorLifetime) {
  FaultPlan plan;
  plan.alloc_fail_at_charge = 2;
  FaultInjector injector(plan);
  EXPECT_TRUE(injector.OnMemoryCharge().ok());
  Status failed = injector.OnMemoryCharge();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kOutOfMemory);
  // Ordinal counters are cumulative: the fault is one-shot, so a retry
  // that reuses the injector proceeds (the transient-failure shape).
  EXPECT_TRUE(injector.OnMemoryCharge().ok());
  EXPECT_EQ(injector.charges_seen(), 3);
}

TEST(FaultInjectorTest, CorruptReadPoisonsStoreReads) {
  FaultPlan plan;
  plan.corrupt_read = true;
  FaultInjector injector(plan);
  Status read = injector.OnStoreRead("some/checkpoint.ckpt");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace ga::faults
