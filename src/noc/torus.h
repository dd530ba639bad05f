// 3D-torus interconnect model.
//
// Anton machines are built around a 3D torus with per-hop routers and
// hardware multicast.  This model captures the three effects that determine
// message timing at MD scale: distance (per-hop router latency), bandwidth
// (per-link serialization with occupancy-based contention), and endpoint
// injection overhead.  Routing is dimension-ordered (x, then y, then z),
// taking the shorter way around each ring.  Multicast follows the
// dimension-ordered tree, charging each tree link exactly once — the
// hardware multicast the paper's import regions rely on.
//
// Granularity: virtual cut-through at whole-message level.  The head
// experiences hop latency per router; each traversed link is occupied for
// the serialization time; delivery completes when the tail clears the final
// link.  Contention is modelled by per-link busy-until bookkeeping, which is
// causally consistent because sends are issued from discrete events in time
// order.
//
// The send path is allocation-free in steady state: timing is planned in
// plan_unicast/plan_multicast using persistent route/tree scratch (the
// multicast tree uses generation-stamped per-link arrays, not a map), and
// delivery callbacks are templated through to the event queue's pooled
// inline-callable arena.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace anton::noc {

// Route-selection policy.  Dimension-ordered routing is deterministic and
// deadlock-free but concentrates load; randomised axis order spreads
// traffic across the (up to) 6 minimal path families, relieving hotspots at
// the cost of a (modelled) deadlock-avoidance VC.
enum class RoutingPolicy {
  kDimensionOrder,
  kRandomizedOrder,
};

struct TorusConfig {
  int nx = 8, ny = 8, nz = 8;
  RoutingPolicy routing = RoutingPolicy::kDimensionOrder;
  double link_bandwidth_gbs = 10.0;    // GB/s per direction per link
  double hop_latency_ns = 30.0;        // router traversal + wire, per hop
  double injection_overhead_ns = 10.0; // endpoint cost per message
  double packet_overhead_bytes = 32.0; // header/CRC added per message

  // Failure injection: individual links running at reduced speed (a failing
  // SerDes lane, a marginal cable).  factor > 1 multiplies the link's
  // serialization time.
  struct DeratedLink {
    int node;
    int dir;  // 0..5: +x,-x,+y,-y,+z,-z
    double factor;
  };
  std::vector<DeratedLink> derated_links;

  int num_nodes() const { return nx * ny * nz; }
};

struct LinkId {
  int node;  // source node of the directed link
  int dir;   // 0..5: +x,-x,+y,-y,+z,-z
  friend bool operator==(const LinkId&, const LinkId&) = default;
};

struct NocStats {
  uint64_t messages = 0;
  double total_bytes = 0;
  RunningStat latency_ns;      // per-delivery
  RunningStat hops;            // per-delivery
  double max_link_busy_ns = 0; // busiest link's total occupancy
  double total_link_busy_ns = 0;
};

class Torus {
 public:
  Torus(const TorusConfig& config, sim::EventQueue* queue);

  const TorusConfig& config() const { return config_; }
  int num_nodes() const { return config_.num_nodes(); }

  int rank(int x, int y, int z) const {
    return (z * config_.ny + y) * config_.nx + x;
  }
  void coords(int rank, int* x, int* y, int* z) const {
    *x = rank % config_.nx;
    *y = (rank / config_.nx) % config_.ny;
    *z = rank / (config_.nx * config_.ny);
  }

  // Minimal route; axis order per the routing policy (randomised order
  // hashes (src, dst, message sequence) deterministically).  Returns the
  // sequence of directed links.
  std::vector<LinkId> route(int src, int dst) const;
  // Route with an explicit axis permutation (perm is a permutation of
  // {0,1,2}).
  std::vector<LinkId> route_ordered(int src, int dst,
                                    const int (&axis_order)[3]) const;
  int hop_count(int src, int dst) const;

  // Sends `bytes` from src to dst; on_delivery fires at the delivery time.
  // src == dst delivers after a fixed local-loopback cost.  The callback is
  // stored inline in the event queue's pooled arena — keep captures small
  // (pointers/indices); oversized captures fail to compile.
  template <class F>
  void unicast(int src, int dst, double bytes, F&& on_delivery) {
    ANTON_HOT_NOALLOC();
    int last_link = -1;
    const sim::SimTime deliver = plan_unicast(src, dst, bytes, &last_link);
    ++injected_;
    deliver_at(deliver, last_link,
               [this, cb = std::forward<F>(on_delivery)]() mutable {
                 ++delivered_;
                 cb();
               });
  }

  // Multicasts along the dimension-ordered tree; on_delivery(i) fires once
  // per destination — i indexes into `dsts`, at dsts[i]'s own delivery time
  // (index, not node id, so dispatch on the receiving side is a plain array
  // lookup).  Each tree link carries the payload once.  `dsts` must stay
  // valid until the multicast call returns; the callback is copied per
  // destination, so it must be copyable and small.
  template <class F>
  void multicast(int src, std::span<const int> dsts, double bytes,
                 const F& on_delivery) {
    ANTON_HOT_NOALLOC();
    plan_multicast(src, dsts, bytes);
    for (size_t i = 0; i < dsts.size(); ++i) {
      ++injected_;
      deliver_at(mcast_deliver_[i], mcast_last_link_[i],
                 [this, cb = on_delivery, i]() mutable {
                   ++delivered_;
                   cb(static_cast<int>(i));
                 });
    }
  }

  const NocStats& stats();
  void reset_stats();

  // Zeroes per-link busy-until horizons (and the randomized-routing
  // sequence) so a *reset* event queue can replay traffic from t = 0 —
  // without this, links would appear occupied by a previous run.
  // reset_stats() deliberately leaves horizons alone (occupancy persists
  // across phases within a run); callers replaying a run want both.
  void reset_time();

  // Attaches telemetry sinks.  Metrics registered under "<prefix>.":
  //   <prefix>.messages        counter, per delivery
  //   <prefix>.latency_ns      histogram of per-delivery latency
  //   <prefix>.hops            histogram of per-delivery hop count
  // When `trace` is non-null, every link reservation becomes a "ser" span on
  // (obs::kPidNoc, tid = link index) — the per-link serialization occupancy
  // timeline — and every packet a "packet" span on tid = source node with
  // dst/bytes/hops args.  Pass (nullptr, "", nullptr) to detach.
  void set_telemetry(obs::MetricsRegistry* registry, const std::string& prefix,
                     obs::TraceWriter* trace = nullptr);

  // Snapshot of per-link occupancy over an elapsed window: fills
  // "<prefix>.link.occupancy" (histogram of busy_ns / elapsed_ns across all
  // directed links) plus max/mean gauges.  elapsed_ns must be positive.
  void export_link_occupancy(obs::MetricsRegistry* registry,
                             const std::string& prefix,
                             double elapsed_ns) const;

  // Failure injection after construction: multiplies the directed link's
  // serialization time by `factor` (>= 1).
  void derate_link(int node, int dir, double factor);

  // Total occupancy (ns) of the busiest directed link — used by benches to
  // report utilization.
  double busiest_link_ns() const;

  // Packet-conservation accounting (always-on counters; the checks compile
  // out in release unless ANTON_ENABLE_INVARIANTS).  Every unicast counts as
  // one injected packet, every multicast as one per destination; a packet is
  // delivered when its on_delivery callback fires.  Conservation means no
  // packet is ever dropped or duplicated by the model:
  //   delivered <= injected  at all times, and
  //   delivered == injected  once the event queue has drained.
  // An in-flight packet is exactly one pooled callable occupying one event
  // arena slot, so conservation now also covers pool recycling: quiescence
  // requires the queue's arena accounting to balance (no slot leaked, none
  // double-freed).
  uint64_t packets_injected() const { return injected_; }
  uint64_t packets_delivered() const { return delivered_; }
  uint64_t packets_in_flight() const { return injected_ - delivered_; }
  // Always-on validator for tests and end-of-phase barriers: throws unless
  // every injected packet has been delivered and the event pool balances.
  void check_quiescent() const;

 private:
  int link_index(const LinkId& l) const {
    return l.node * 6 + l.dir;
  }
  // Advances a message across `links` starting at `now`; returns delivery
  // time.
  sim::SimTime traverse(sim::SimTime now, std::span<const LinkId> links,
                        double wire_bytes);

  // Non-template halves of the send path: all routing, contention and stats
  // bookkeeping, using persistent scratch.  plan_unicast returns the
  // delivery time and the index of the final link (-1 for a self-send);
  // plan_multicast fills mcast_deliver_[i] and mcast_last_link_[i] per
  // destination.  Both read "now" from the attached queue.
  sim::SimTime plan_unicast(int src, int dst, double bytes, int* last_link);
  void plan_multicast(int src, std::span<const int> dsts, double bytes);

  // Schedules a delivery.  Deliveries over one final link clear it in the
  // order they reserved it, so they ride the link's ordered stream and the
  // event heap holds one pending delivery per link; a self-send, which
  // crosses no link, is scheduled directly.
  template <class F>
  void deliver_at(sim::SimTime t, int last_link, F&& fn) {
    if (last_link < 0) {
      queue_->schedule_at(t, std::forward<F>(fn));
    } else {
      queue_->schedule_on(first_stream_ + last_link, t, std::forward<F>(fn));
    }
  }

  // Appends the policy-selected route to `out` (persistent-scratch variant
  // of route()).
  void route_into(int src, int dst, std::vector<LinkId>& out) const;
  void route_ordered_into(int src, int dst, const int (&axis_order)[3],
                          std::vector<LinkId>& out) const;

  TorusConfig config_;
  sim::EventQueue* queue_;
  int first_stream_ = 0;  // the queue stream of link 0
  std::vector<sim::SimTime> link_free_;   // busy-until per directed link
  std::vector<double> link_busy_total_;   // accumulated occupancy
  std::vector<double> link_derate_;       // serialization multiplier per link
  mutable uint64_t route_seq_ = 0;        // randomised-routing hash input
  uint64_t injected_ = 0;                 // packets handed to unicast/multicast
  uint64_t delivered_ = 0;                // on_delivery callbacks fired
  NocStats stats_;

  // Send-path scratch (persistent; grown once, recycled every call).
  mutable std::vector<LinkId> route_scratch_;
  std::vector<sim::SimTime> mcast_deliver_;  // per-destination delivery time
  std::vector<int> mcast_last_link_;         // per-destination final link
  // Generation-stamped multicast tree: mcast_mark_[link] == mcast_gen_
  // means the link already carries this multicast's payload and
  // mcast_head_[link] is the head departure time — replaces the per-call
  // std::map<(node,dir), SimTime> the old path allocated.
  std::vector<sim::SimTime> mcast_head_;
  std::vector<uint64_t> mcast_mark_;
  uint64_t mcast_gen_ = 0;

  // Telemetry sinks (all null when detached).
  obs::Counter* tel_messages_ = nullptr;
  obs::Histo* tel_latency_ = nullptr;
  obs::Histo* tel_hops_ = nullptr;
  obs::TraceWriter* trace_ = nullptr;

  void observe_delivery(sim::SimTime now, int src, int dst, double bytes,
                        int hops, sim::SimTime deliver);
  void observe_link(const LinkId& l, sim::SimTime start, double ser_ns);
};

}  // namespace anton::noc
