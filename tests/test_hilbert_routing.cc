// Tests for the randomised-order routing policy.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "noc/torus.h"

namespace anton {
namespace {

TEST(RandomizedRouting, RoutesRemainMinimalAndCorrect) {
  noc::TorusConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 4;
  cfg.routing = noc::RoutingPolicy::kRandomizedOrder;
  sim::EventQueue q;
  noc::Torus t(cfg, &q);
  Rng rng(603, 0);
  for (int trial = 0; trial < 200; ++trial) {
    const int src = static_cast<int>(rng.uniform_u64(64));
    const int dst = static_cast<int>(rng.uniform_u64(64));
    const auto route = t.route(src, dst);
    EXPECT_EQ(static_cast<int>(route.size()), t.hop_count(src, dst));
    int cur = src;
    for (const auto& link : route) {
      EXPECT_EQ(link.node, cur);
      int cx, cy, cz;
      t.coords(cur, &cx, &cy, &cz);
      int c[3] = {cx, cy, cz};
      const int axis = link.dir / 2;
      c[axis] = (c[axis] + (link.dir % 2 == 0 ? 1 : -1) + 4) % 4;
      cur = t.rank(c[0], c[1], c[2]);
    }
    EXPECT_EQ(cur, dst);
  }
}

TEST(RandomizedRouting, SpreadsPathsAcrossFamilies) {
  noc::TorusConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 4;
  cfg.routing = noc::RoutingPolicy::kRandomizedOrder;
  sim::EventQueue q;
  noc::Torus t(cfg, &q);
  const int src = t.rank(0, 0, 0), dst = t.rank(1, 1, 1);
  std::set<int> first_dirs;
  for (int i = 0; i < 60; ++i) {
    first_dirs.insert(t.route(src, dst)[0].dir);
  }
  // A 3-axis diagonal has 3 possible first steps; DOR always takes +x.
  EXPECT_GE(first_dirs.size(), 2u);
}

TEST(RandomizedRouting, MulticastTreesStayDimensionOrdered) {
  // Tree prefix sharing requires deterministic routes; randomised policy
  // must not change multicast traffic volume.
  auto tree_bytes = [](noc::RoutingPolicy policy) {
    noc::TorusConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.routing = policy;
    cfg.packet_overhead_bytes = 0;
    sim::EventQueue q;
    noc::Torus t(cfg, &q);
    std::vector<int> dsts;
    for (int n = 1; n < 16; ++n) dsts.push_back(n);
    t.multicast(0, dsts, 1000.0, [](int) {});
    q.run();
    return t.stats().total_bytes;
  };
  EXPECT_DOUBLE_EQ(tree_bytes(noc::RoutingPolicy::kDimensionOrder),
                   tree_bytes(noc::RoutingPolicy::kRandomizedOrder));
}

TEST(RandomizedRouting, RelievesHotspotUnderConvergingTraffic) {
  // Many nodes in an x-row sending to the same destination: DOR funnels all
  // of it through the destination's -x/+x links; randomised order spreads
  // it.  Compare completion times.
  auto run = [](noc::RoutingPolicy policy) {
    noc::TorusConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 4;
    cfg.routing = policy;
    cfg.hop_latency_ns = 10;
    cfg.injection_overhead_ns = 0;
    cfg.packet_overhead_bytes = 0;
    sim::EventQueue q;
    noc::Torus t(cfg, &q);
    const int dst = t.rank(2, 2, 2);
    for (int x = 0; x < 4; ++x) {
      for (int y = 0; y < 4; ++y) {
        for (int z = 0; z < 4; ++z) {
          const int src = t.rank(x, y, z);
          if (src == dst) continue;
          t.unicast(src, dst, 2000.0, [] {});
        }
      }
    }
    return q.run();
  };
  const double t_dor = run(noc::RoutingPolicy::kDimensionOrder);
  const double t_rnd = run(noc::RoutingPolicy::kRandomizedOrder);
  // All traffic terminates at one node either way (its 6 inbound links are
  // the true bottleneck), but the randomised scheme balances the upstream
  // segments, so it must not be slower.
  EXPECT_LE(t_rnd, t_dor * 1.02);
}

}  // namespace
}  // namespace anton
