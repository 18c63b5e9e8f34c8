#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "hw/disk.h"
#include "sim/simulation.h"

namespace saex::hw {
namespace {

// Runs `k` closed-loop sequential streams, each reading `per_stream` bytes in
// `chunk`-sized blocking requests; returns aggregate throughput (bytes/s).
double measure_throughput(const DiskParams& params, int k, Bytes per_stream,
                          Bytes chunk, bool is_write = false) {
  sim::Simulation sim;
  Disk disk(sim, params, "d");
  int done_streams = 0;

  std::function<void(int, Bytes)> pump = [&](int stream, Bytes remaining) {
    if (remaining <= 0) {
      ++done_streams;
      return;
    }
    const Bytes now_chunk = std::min(chunk, remaining);
    disk.submit(now_chunk, is_write,
                [&pump, stream, remaining, now_chunk] {
                  pump(stream, remaining - now_chunk);
                });
  };
  for (int i = 0; i < k; ++i) pump(i, per_stream);
  const double elapsed = sim.run();
  EXPECT_EQ(done_streams, k);
  return static_cast<double>(per_stream) * k / elapsed;
}

TEST(DiskCapacity, HddUnimodalInConcurrency) {
  const DiskParams hdd = DiskParams::hdd();
  sim::Simulation sim;
  Disk disk(sim, hdd, "d");
  // Rises from 1 toward a 4..8 plateau, falls beyond (Fig. 12a shape).
  EXPECT_GT(disk.capacity_at(2), disk.capacity_at(1));
  EXPECT_GT(disk.capacity_at(4), disk.capacity_at(2));
  EXPECT_NEAR(disk.capacity_at(8), disk.capacity_at(4),
              0.05 * disk.capacity_at(4));
  EXPECT_GT(disk.capacity_at(8), disk.capacity_at(16));
  EXPECT_GT(disk.capacity_at(16), disk.capacity_at(32));
  // The paper's headline: default (32) clearly below the peak.
  EXPECT_LT(disk.capacity_at(32), 0.65 * disk.capacity_at(4));
}

TEST(DiskCapacity, SsdEssentiallyFlatForReads) {
  const DiskParams ssd = DiskParams::ssd();
  sim::Simulation sim;
  Disk disk(sim, ssd, "d");
  const double c1 = disk.capacity_at(1);
  const double c32 = disk.capacity_at(32);
  EXPECT_GT(c32, c1);  // more concurrency never hurts SSD reads
  EXPECT_LT(c32 / c1, 1.4);
}

TEST(DiskCapacity, ZeroConcurrencyIsZero) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  EXPECT_EQ(disk.capacity_at(0), 0.0);
}

TEST(DiskThroughput, MeasuredMatchesCapacityWhenSaturated) {
  // Pure-I/O closed loops keep the device saturated, so measured aggregate
  // throughput approximates C(k).
  const DiskParams hdd = DiskParams::hdd();
  sim::Simulation sim;
  Disk ref(sim, hdd, "d");
  for (int k : {1, 4, 16}) {
    const double measured = measure_throughput(hdd, k, mib(256), mib(8));
    EXPECT_NEAR(measured, ref.capacity_at(k), 0.06 * ref.capacity_at(k))
        << "k=" << k;
  }
}

TEST(DiskThroughput, HddDegradesAtHighConcurrency) {
  const DiskParams hdd = DiskParams::hdd();
  const double t4 = measure_throughput(hdd, 4, mib(128), mib(4));
  const double t32 = measure_throughput(hdd, 32, mib(128), mib(4));
  EXPECT_LT(t32, 0.75 * t4);
}

TEST(DiskThroughput, SsdWritesSlowerThanReads) {
  const DiskParams ssd = DiskParams::ssd();
  const double r = measure_throughput(ssd, 4, mib(256), mib(8), false);
  const double w = measure_throughput(ssd, 4, mib(256), mib(8), true);
  EXPECT_LT(w, 0.7 * r);
}

TEST(DiskThroughput, SpeedFactorScales) {
  sim::Simulation sim;
  Disk fast(sim, DiskParams::hdd(), "fast", 1.0);
  Disk slow(sim, DiskParams::hdd(), "slow", 0.5);
  EXPECT_NEAR(slow.capacity_at(4), 0.5 * fast.capacity_at(4), 1e-6);
}

TEST(Disk, ByteCountersTrackSubmissions) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  disk.submit(mib(10), false, [] {});
  disk.submit(mib(5), true, [] {});
  sim.run();
  EXPECT_EQ(disk.total_bytes_read(), mib(10));
  EXPECT_EQ(disk.total_bytes_written(), mib(5));
}

TEST(Disk, ZeroByteTransferCompletes) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  bool done = false;
  disk.submit(0, false, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Disk, BusyTrackerReflectsActivity) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  bool done = false;
  disk.submit(mib(16), false, [&] { done = true; });
  const double end = sim.run();
  ASSERT_TRUE(done);
  // Busy except for the setup latency.
  EXPECT_GT(disk.busy_tracker().utilization(0.0, end), 0.95);
}

TEST(Disk, LoneTransferSchedulesSetupAndOneWakeUp) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  disk.submit(mib(16), false, [] {});
  sim.run();
  EXPECT_EQ(sim.scheduled(), 2u);  // setup latency + the completion wake-up
  EXPECT_EQ(sim.processed(), 2u);
}

TEST(Disk, JoiningABusyDeviceArmsOneWakeUp) {
  // The second join settles the first transfer without arming a wake-up of
  // its own, then arms exactly one for the new transfer set.
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  disk.submit(mib(16), false, [] {});
  disk.submit(mib(16), false, [] {});
  sim.run();
  EXPECT_EQ(sim.scheduled(), 4u);  // 2 setups + 1 wake-up per join
  EXPECT_EQ(sim.processed(), 3u);  // both complete at the surviving wake-up
}

TEST(Disk, SharedLatencyGrowsWithConcurrency) {
  // Single-transfer completion time vs the same transfer alongside 7 others:
  // processor sharing must stretch individual latencies.
  auto single_latency = [](int k) {
    sim::Simulation sim;
    Disk disk(sim, DiskParams::hdd(), "d");
    double first_done = -1;
    for (int i = 0; i < k; ++i) {
      disk.submit(mib(32), false, [&sim, &first_done] {
        if (first_done < 0) first_done = sim.now();
      });
    }
    sim.run();
    return first_done;
  };
  EXPECT_GT(single_latency(8), 3.0 * single_latency(1));
}

TEST(Disk, CompletionOrderIsFairUnderEqualWork) {
  // Equal-size transfers submitted together finish together (PS fairness).
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  std::vector<double> finish;
  for (int i = 0; i < 4; ++i) {
    disk.submit(mib(64), false, [&] { finish.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(finish.size(), 4u);
  for (double f : finish) EXPECT_NEAR(f, finish[0], 1e-6);
}

// Parameterized property sweep: for every chunk size and stream count the
// device never exceeds its configured capacity envelope.
class DiskPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DiskPropertyTest, ThroughputNeverExceedsCapacity) {
  const auto [k, chunk_mib] = GetParam();
  const DiskParams hdd = DiskParams::hdd();
  sim::Simulation sim;
  Disk ref(sim, hdd, "d");
  double peak = 0.0;
  for (int i = 1; i <= 64; ++i) peak = std::max(peak, ref.capacity_at(i));
  const double measured =
      measure_throughput(hdd, k, mib(64), mib(chunk_mib));
  EXPECT_LE(measured, peak * 1.01) << "k=" << k << " chunk=" << chunk_mib;
  EXPECT_GT(measured, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiskPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13, 21, 32),
                       ::testing::Values(1, 4, 16)));

}  // namespace
}  // namespace saex::hw
