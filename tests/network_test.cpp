#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "hw/network.h"
#include "sim/simulation.h"

namespace saex::hw {
namespace {

NetworkParams small_net() {
  NetworkParams p;
  p.up_bw = 100e6;
  p.down_bw = 100e6;
  p.incast_src_threshold = 4;
  p.incast_flow_threshold = 4;
  p.incast_coeff = 0.1;
  p.per_flow_cap = 1e12;  // uncapped: these tests exercise link sharing
  p.latency = 0.0001;
  return p;
}

TEST(Network, SingleFlowRunsAtLinkRate) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  bool done = false;
  net.transfer(0, 1, static_cast<Bytes>(100e6), [&] { done = true; });
  const double end = sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(end, 1.0, 0.01);  // 100 MB at 100 MB/s (+latency)
}

TEST(Network, UplinkSharedBetweenFlows) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  int done = 0;
  // Two flows from node 0 to distinct destinations: each gets half the up bw.
  net.transfer(0, 1, static_cast<Bytes>(50e6), [&] { ++done; });
  net.transfer(0, 2, static_cast<Bytes>(50e6), [&] { ++done; });
  const double end = sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(end, 1.0, 0.02);
}

TEST(Network, DisjointPairsDoNotInterfere) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  int done = 0;
  net.transfer(0, 1, static_cast<Bytes>(100e6), [&] { ++done; });
  net.transfer(2, 3, static_cast<Bytes>(100e6), [&] { ++done; });
  const double end = sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(end, 1.0, 0.02);
}

TEST(Network, IncastPenaltyNeedsBothSendersAndConcurrency) {
  sim::Simulation sim;
  Network net(sim, 16, small_net());
  // Below either threshold: full capacity.
  EXPECT_DOUBLE_EQ(net.down_capacity_eff(4, 100), 100e6);
  EXPECT_DOUBLE_EQ(net.down_capacity_eff(100, 4), 100e6);
  // Beyond both: collapse, monotone in each factor.
  EXPECT_LT(net.down_capacity_eff(10, 10), 100e6);
  EXPECT_LT(net.down_capacity_eff(14, 10), net.down_capacity_eff(10, 10));
  EXPECT_LT(net.down_capacity_eff(10, 20), net.down_capacity_eff(10, 10));
}

TEST(Network, FetchRegistrationCountsSendersAndRequests) {
  sim::Simulation sim;
  Network net(sim, 8, small_net());
  net.register_fetch(1, 0);
  net.register_fetch(1, 0);
  net.register_fetch(2, 0);
  EXPECT_EQ(net.fetches_to(0), 3);
  EXPECT_EQ(net.senders_to(0), 2);
  net.unregister_fetch(1, 0);
  net.unregister_fetch(1, 0);
  EXPECT_EQ(net.senders_to(0), 1);
  net.unregister_fetch(2, 0);
  EXPECT_EQ(net.fetches_to(0), 0);
}

TEST(Network, ManyToOneSlowerThanAggregateBandwidthSuggests) {
  // 12 sources -> 1 destination with threshold 4: incast inflates completion
  // beyond the no-penalty bound of total_bytes/down_bw.
  sim::Simulation sim;
  Network net(sim, 16, small_net());
  int done = 0;
  const Bytes each = static_cast<Bytes>(10e6);
  for (int src = 1; src <= 12; ++src) {
    net.transfer(src, 0, each, [&] { ++done; });
  }
  const double end = sim.run();
  EXPECT_EQ(done, 12);
  const double ideal = 12.0 * 10e6 / 100e6;  // 1.2 s without penalty
  EXPECT_GT(end, ideal * 1.3);
}

TEST(Network, FlowCountersTrackActiveFlows) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  net.transfer(0, 1, static_cast<Bytes>(1e6), [] {});
  net.transfer(0, 2, static_cast<Bytes>(1e6), [] {});
  sim.run_until(0.001);
  EXPECT_EQ(net.flows_from(0), 2);
  EXPECT_EQ(net.flows_to(1), 1);
  EXPECT_EQ(net.active_flows(), 2);
  sim.run();
  EXPECT_EQ(net.active_flows(), 0);
  EXPECT_EQ(net.flows_from(0), 0);
}

TEST(Network, BytesAccounting) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  net.transfer(0, 1, 1000, [] {});
  net.transfer(2, 1, 500, [] {});
  sim.run();
  EXPECT_EQ(net.bytes_sent(0), 1000);
  EXPECT_EQ(net.bytes_sent(2), 500);
  EXPECT_EQ(net.total_bytes(), 1500);
}

TEST(Network, PerFlowCapLimitsSingleStream) {
  NetworkParams p = small_net();
  p.per_flow_cap = 10e6;  // a lone stream cannot saturate the 100 MB/s link
  sim::Simulation sim;
  Network net(sim, 4, p);
  bool done = false;
  net.transfer(0, 1, static_cast<Bytes>(10e6), [&] { done = true; });
  const double end = sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(end, 1.0, 0.02);  // 10 MB at 10 MB/s, not at 100 MB/s
}

TEST(Network, ManyFlowsStillFillTheLink) {
  NetworkParams p = small_net();
  p.per_flow_cap = 10e6;
  p.incast_src_threshold = 16;  // below the knee: pure aggregation
  sim::Simulation sim;
  Network net(sim, 16, p);
  int done = 0;
  // 10 sources to one sink: 10 x 10 MB/s = link rate 100 MB/s.
  for (int src = 1; src <= 10; ++src) {
    net.transfer(src, 0, static_cast<Bytes>(10e6), [&] { ++done; });
  }
  const double end = sim.run();
  EXPECT_EQ(done, 10);
  EXPECT_NEAR(end, 1.0, 0.05);
}

TEST(Network, ZeroByteTransferCompletes) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  bool done = false;
  net.transfer(0, 1, 0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Network, StaggeredArrivalsAdjustRates) {
  // Second flow arrives halfway through the first; the first must slow down
  // and finish later than it would alone.
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  double first_done = -1;
  net.transfer(0, 1, static_cast<Bytes>(100e6), [&] { first_done = sim.now(); });
  sim.schedule_at(0.5, [&] {
    net.transfer(0, 2, static_cast<Bytes>(100e6), [] {});
  });
  sim.run();
  EXPECT_GT(first_done, 1.2);  // alone it would finish at ~1.0
}

// Completion times of three flows into/out of node 1, optionally with fetch
// registrations at node 1 and 3 opened at `open_at` and closed at `close_at`.
std::vector<double> finish_times(double open_at, double close_at) {
  sim::Simulation sim;
  Network net(sim, 12, small_net());
  std::vector<double> done(3, -1.0);
  net.transfer(0, 1, static_cast<Bytes>(100e6), [&] { done[0] = sim.now(); });
  net.transfer(2, 1, static_cast<Bytes>(50e6), [&] { done[1] = sim.now(); });
  net.transfer(1, 3, static_cast<Bytes>(30e6), [&] { done[2] = sim.now(); });
  if (open_at >= 0.0) {
    sim.schedule_at(open_at, [&net] {
      for (int src = 4; src < 10; ++src) net.register_fetch(src, 1);
      net.register_fetch(4, 3);
      net.register_fetch(5, 3);
    });
    sim.schedule_at(close_at, [&net] {
      for (int src = 4; src < 10; ++src) net.unregister_fetch(src, 1);
      net.unregister_fetch(4, 3);
      net.unregister_fetch(5, 3);
    });
  }
  sim.run();
  EXPECT_EQ(net.active_flows(), 0);
  EXPECT_EQ(net.fetches_to(1), 0);
  EXPECT_EQ(net.senders_to(1), 0);
  return done;
}

TEST(Network, FetchRegistrationBetweenAdvancesRefreshesCachedShares) {
  // The cached link shares must follow register/unregister_fetch even when
  // no flow joins or completes in between (debug builds also assert, in
  // flow_rate, that each cached share equals the formula from the counts).
  const std::vector<double> control = finish_times(-1.0, -1.0);
  // Flow (1,3) completes at ~0.3, node 1's two inbound flows at ~1.0 and
  // ~1.5: opened and closed again inside (0.3, 1.0), the registrations are
  // never seen by an advance, so every completion is bitwise unchanged.
  EXPECT_EQ(finish_times(0.35, 0.45), control);
  // Held across the advance at ~0.3, they do throttle node 1's downlink:
  // its inbound flows finish later, and all flows still drain.
  const std::vector<double> throttled = finish_times(0.2, 0.5);
  EXPECT_GT(throttled[0], control[0]);
  EXPECT_GT(throttled[1], control[1]);
  EXPECT_EQ(throttled[2], control[2]);
}

TEST(Network, LinkShareRecoversWhenASiblingFlowCompletes) {
  // Two flows share node 0's uplink (then, mirrored, its downlink) at 50 MB/s
  // each; once the shorter one finishes, the survivor gets the whole link.
  for (const bool uplink : {true, false}) {
    sim::Simulation sim;
    Network net(sim, 4, small_net());
    double short_done = -1.0;
    double long_done = -1.0;
    const auto route = [uplink](int peer) {
      return uplink ? std::pair{0, peer} : std::pair{peer, 0};
    };
    const auto [s1, d1] = route(1);
    const auto [s2, d2] = route(2);
    net.transfer(s1, d1, static_cast<Bytes>(50e6),
                 [&] { short_done = sim.now(); });
    net.transfer(s2, d2, static_cast<Bytes>(100e6),
                 [&] { long_done = sim.now(); });
    sim.run();
    const double latency = small_net().latency;
    EXPECT_NEAR(short_done, latency + 1.0, 1e-9);
    EXPECT_NEAR(long_done, latency + 1.5, 1e-9);
  }
}

TEST(Network, RandomFlowsAndFetchRegistrationsDrain) {
  // Pseudo-random flows, batched flows and register/unregister pairs, so
  // cached shares are refreshed in every order the counts can change.
  sim::Simulation sim;
  Network net(sim, 8, small_net());
  uint64_t rng = 11;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>(rng >> 33);
  };
  int done = 0;
  int started = 0;
  for (int i = 0; i < 400; ++i) {
    const double t = 0.01 * (next() % 300);
    const int src = next() % 8;
    const int dst = (src + 1 + next() % 7) % 8;
    const Bytes bytes = static_cast<Bytes>(1e5 * (1 + next() % 50));
    const int kind = next() % 3;
    if (kind == 2) {
      const double hold = 0.001 * (next() % 400);
      sim.schedule_at(t, [&net, &sim, src, dst, hold] {
        net.register_fetch(src, dst);
        sim.schedule_after(hold, [&net, src, dst] {
          net.unregister_fetch(src, dst);
        });
      });
      continue;
    }
    ++started;
    sim.schedule_at(t, [&net, &done, src, dst, bytes, kind] {
      if (kind == 0) {
        net.transfer(src, dst, bytes, [&done] { ++done; });
      } else {
        net.transfer_flow(src, dst, bytes, 3, 1 << 16, [&done] { ++done; });
      }
    });
  }
  sim.run();
  EXPECT_EQ(done, started);
  EXPECT_EQ(net.active_flows(), 0);
  for (int n = 0; n < 8; ++n) {
    EXPECT_EQ(net.flows_from(n), 0);
    EXPECT_EQ(net.flows_to(n), 0);
    EXPECT_EQ(net.fetches_to(n), 0);
    EXPECT_EQ(net.senders_to(n), 0);
  }
}

TEST(Network, LoneFlowSchedulesSetupAndOneWakeUp) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  net.transfer(0, 1, static_cast<Bytes>(10e6), [] {});
  sim.run();
  EXPECT_EQ(sim.scheduled(), 2u);  // setup latency + the completion wake-up
  EXPECT_EQ(sim.processed(), 2u);
}

TEST(Network, JoiningABusyNetworkArmsOneWakeUp) {
  // The second join settles the first flow without arming a wake-up of its
  // own, then arms exactly one for the new flow set.
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  net.transfer(0, 1, static_cast<Bytes>(10e6), [] {});
  net.transfer(2, 3, static_cast<Bytes>(10e6), [] {});
  sim.run();
  EXPECT_EQ(sim.scheduled(), 4u);  // 2 setups + 1 wake-up per join
  EXPECT_EQ(sim.processed(), 3u);  // both complete at the surviving wake-up
}

}  // namespace
}  // namespace saex::hw
