#include "noc/torus.h"

#include <algorithm>

#include "obs/flightrecorder.h"

namespace anton::noc {

Torus::Torus(const TorusConfig& config, sim::EventQueue* queue)
    : config_(config), queue_(queue) {
  ANTON_CHECK(queue != nullptr);
  ANTON_CHECK_MSG(config.nx >= 1 && config.ny >= 1 && config.nz >= 1,
                  "torus dimensions must be positive");
  ANTON_CHECK_MSG(config.link_bandwidth_gbs > 0,
                  "noc.link_bandwidth_gbs must be positive, got "
                      << config.link_bandwidth_gbs);
  ANTON_CHECK_MSG(config.hop_latency_ns >= 0,
                  "noc.hop_latency_ns must be >= 0, got "
                      << config.hop_latency_ns);
  ANTON_CHECK_MSG(config.injection_overhead_ns >= 0,
                  "noc.injection_overhead_ns must be >= 0, got "
                      << config.injection_overhead_ns);
  ANTON_CHECK_MSG(config.packet_overhead_bytes >= 0,
                  "noc.packet_overhead_bytes must be >= 0, got "
                      << config.packet_overhead_bytes);
  link_free_.assign(static_cast<size_t>(num_nodes()) * 6, 0.0);
  link_busy_total_.assign(link_free_.size(), 0.0);
  link_derate_.assign(link_free_.size(), 1.0);
  mcast_head_.assign(link_free_.size(), 0.0);
  mcast_mark_.assign(link_free_.size(), 0);
  first_stream_ = queue_->add_streams(static_cast<int>(link_free_.size()));
  for (const auto& d : config.derated_links) {
    derate_link(d.node, d.dir, d.factor);
  }
}

void Torus::derate_link(int node, int dir, double factor) {
  ANTON_CHECK_MSG(node >= 0 && node < num_nodes() && dir >= 0 && dir < 6,
                  "bad link id (" << node << "," << dir << ")");
  ANTON_CHECK_MSG(factor >= 1.0, "derate factor must be >= 1");
  link_derate_[static_cast<size_t>(link_index({node, dir}))] = factor;
}

namespace {
// Steps along one ring axis taking the shorter way; returns (+1/-1 step,
// number of hops).
std::pair<int, int> ring_steps(int from, int to, int n) {
  const int fwd = (to - from + n) % n;
  const int bwd = n - fwd;
  if (fwd == 0) return {0, 0};
  if (fwd <= bwd) return {+1, fwd};
  return {-1, bwd};
}
}  // namespace

// Appends into caller-owned scratch; growth amortized.
void Torus::route_ordered_into(int src, int dst, const int (&axis_order)[3],
                               std::vector<LinkId>& out) const {
  ANTON_HOT_NOALLOC();
  int x, y, z, dx, dy, dz;
  coords(src, &x, &y, &z);
  coords(dst, &dx, &dy, &dz);

  const int dims[3] = {config_.nx, config_.ny, config_.nz};
  int cur[3] = {x, y, z};
  const int target[3] = {dx, dy, dz};
  for (int a = 0; a < 3; ++a) {
    const int axis = axis_order[a];
    const auto [step, hops] = ring_steps(cur[axis], target[axis], dims[axis]);
    for (int h = 0; h < hops; ++h) {
      const int dir = axis * 2 + (step > 0 ? 0 : 1);
      out.push_back(  // anton-lint: allow(hot-alloc) amortized scratch growth
          {rank(cur[0], cur[1], cur[2]), dir});
      cur[axis] = (cur[axis] + step + dims[axis]) % dims[axis];
    }
  }
}

std::vector<LinkId> Torus::route_ordered(int src, int dst,
                                         const int (&axis_order)[3]) const {
  std::vector<LinkId> links;
  route_ordered_into(src, dst, axis_order, links);
  return links;
}

void Torus::route_into(int src, int dst, std::vector<LinkId>& out) const {
  ANTON_HOT_NOALLOC();
  static constexpr int kOrders[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                        {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  if (config_.routing == RoutingPolicy::kRandomizedOrder) {
    // Deterministic hash of (src, dst, per-torus sequence number): the same
    // simulation replays identically, but repeated traffic between a node
    // pair spreads across all six minimal path families.
    uint64_t h = 0x9E3779B97F4A7C15ull;
    h ^= static_cast<uint64_t>(src) * 0xBF58476D1CE4E5B9ull;
    h ^= static_cast<uint64_t>(dst) * 0x94D049BB133111EBull;
    h ^= ++route_seq_;
    h *= 0xD2B74407B1CE6E93ull;
    h ^= h >> 29;
    route_ordered_into(src, dst, kOrders[h % 6], out);
    return;
  }
  route_ordered_into(src, dst, kOrders[0], out);
}

std::vector<LinkId> Torus::route(int src, int dst) const {
  std::vector<LinkId> links;
  route_into(src, dst, links);
  return links;
}

int Torus::hop_count(int src, int dst) const {
  int x, y, z, dx, dy, dz;
  coords(src, &x, &y, &z);
  coords(dst, &dx, &dy, &dz);
  const int dims[3] = {config_.nx, config_.ny, config_.nz};
  const int a[3] = {x, y, z}, b[3] = {dx, dy, dz};
  int hops = 0;
  for (int axis = 0; axis < 3; ++axis) {
    hops += ring_steps(a[axis], b[axis], dims[axis]).second;
  }
  return hops;
}

sim::SimTime Torus::traverse(sim::SimTime now, std::span<const LinkId> links,
                             double wire_bytes) {
  ANTON_HOT_NOALLOC();
  const double base_ser_ns =
      wire_bytes / config_.link_bandwidth_gbs;  // B / (GB/s) = ns
  sim::SimTime head = now + config_.injection_overhead_ns;
  double last_ser_ns = base_ser_ns;
  for (const auto& l : links) {
    const size_t idx = static_cast<size_t>(link_index(l));
    const double ser_ns = base_ser_ns * link_derate_[idx];
    const sim::SimTime start = std::max(head, link_free_[idx]);
    // Link occupancy is append-only: a message may never reserve a slot
    // before the link's current busy-until horizon (sends are issued from
    // discrete events in time order, so this would mean causality broke).
    ANTON_CHECK_INVARIANT(start + ser_ns >= link_free_[idx],
                          "link busy-until horizon moved backwards on link ("
                              << l.node << "," << l.dir << ")");
    link_free_[idx] = start + ser_ns;
    link_busy_total_[idx] += ser_ns;
    observe_link(l, start, ser_ns);
    head = start + config_.hop_latency_ns;
    last_ser_ns = ser_ns;
  }
  // Tail clears the final link one serialization time after the head leaves.
  return head + last_ser_ns;
}

sim::SimTime Torus::plan_unicast(int src, int dst, double bytes,
                                 int* last_link) {
  ANTON_HOT_NOALLOC();
  const sim::SimTime now = queue_->now();
  ANTON_CHECK(src >= 0 && src < num_nodes() && dst >= 0 && dst < num_nodes());
  ANTON_CHECK(bytes >= 0);
  const double wire_bytes = bytes + config_.packet_overhead_bytes;
  sim::SimTime deliver;
  int hops = 0;
  if (src == dst) {
    deliver = now + config_.injection_overhead_ns;
  } else {
    route_scratch_.clear();
    route_into(src, dst, route_scratch_);
    hops = static_cast<int>(route_scratch_.size());
    deliver = traverse(now, route_scratch_, wire_bytes);
    *last_link = link_index(route_scratch_.back());
  }
  stats_.messages++;
  // total_bytes counts link-bytes (payload × links traversed) so unicast and
  // multicast accounting are comparable.
  stats_.total_bytes += wire_bytes * std::max(1, hops);
  stats_.latency_ns.add(deliver - now);
  stats_.hops.add(hops);
  observe_delivery(now, src, dst, wire_bytes, hops, deliver);
  return deliver;
}

void Torus::plan_multicast(int src, std::span<const int> dsts,
                           double bytes) {
  ANTON_HOT_NOALLOC();
  const sim::SimTime now = queue_->now();
  ANTON_CHECK(bytes >= 0);
  const double wire_bytes = bytes + config_.packet_overhead_bytes;
  const double ser_ns = wire_bytes / config_.link_bandwidth_gbs;

  // Dimension-ordered tree: union of the unicast routes.  Each tree link is
  // charged once; a node's delivery time is the head arrival at that node
  // plus the final serialization.  The tree is tracked by generation stamp:
  // mcast_mark_[link] == mcast_gen_ marks a link some earlier branch of
  // *this* multicast already reserved.
  ++mcast_gen_;
  mcast_deliver_.resize(  // anton-lint: allow(hot-alloc) amortized scratch
      dsts.size());
  mcast_last_link_.resize(  // anton-lint: allow(hot-alloc) amortized scratch
      dsts.size());
  uint64_t tree_links = 0;
  const sim::SimTime inject = now + config_.injection_overhead_ns;

  for (size_t di = 0; di < dsts.size(); ++di) {
    const int dst = dsts[di];
    ANTON_CHECK(dst >= 0 && dst < num_nodes());
    sim::SimTime head = inject;
    int hops = 0;
    double last_ser_ns = ser_ns;
    int last_link = -1;
    if (dst != src) {
      // Multicast trees are always dimension-ordered: the hardware tree
      // relies on branches sharing route prefixes, which randomised axis
      // order would destroy.
      static constexpr int kDor[3] = {0, 1, 2};
      route_scratch_.clear();
      route_ordered_into(src, dst, kDor, route_scratch_);
      for (const auto& l : route_scratch_) {
        const size_t idx = static_cast<size_t>(link_index(l));
        const double link_ser = ser_ns * link_derate_[idx];
        if (mcast_mark_[idx] == mcast_gen_) {
          // Link already carries the payload for an earlier branch; this
          // branch rides along.
          head = mcast_head_[idx] + config_.hop_latency_ns;
        } else {
          const sim::SimTime start = std::max(head, link_free_[idx]);
          link_free_[idx] = start + link_ser;
          link_busy_total_[idx] += link_ser;
          observe_link(l, start, link_ser);
          mcast_mark_[idx] = mcast_gen_;
          mcast_head_[idx] = start;
          ++tree_links;
          head = start + config_.hop_latency_ns;
        }
        last_ser_ns = link_ser;
        last_link = static_cast<int>(idx);
        ++hops;
      }
    }
    const sim::SimTime deliver = head + (dst == src ? 0.0 : last_ser_ns);
    mcast_deliver_[di] = deliver;
    mcast_last_link_[di] = last_link;
    stats_.messages++;
    stats_.latency_ns.add(deliver - now);
    stats_.hops.add(hops);
    observe_delivery(now, src, dst, wire_bytes, hops, deliver);
  }
  // Actual tree traffic: one payload per tree link.
  stats_.total_bytes += wire_bytes * static_cast<double>(tree_links);
}

void Torus::set_telemetry(obs::MetricsRegistry* registry,
                          const std::string& prefix,
                          obs::TraceWriter* trace) {
  trace_ = trace;
  if (registry == nullptr) {
    tel_messages_ = nullptr;
    tel_latency_ = nullptr;
    tel_hops_ = nullptr;
    return;
  }
  // Hop histogram spans the torus diameter; latency gets a generous fixed
  // range (overflow clamps into the top bin, which the snapshot makes
  // visible as a saturated p99).
  const int diameter =
      config_.nx / 2 + config_.ny / 2 + config_.nz / 2;
  tel_messages_ = registry->counter(prefix + ".messages");
  tel_latency_ = registry->histogram(prefix + ".latency_ns", 0.0, 50000.0, 100);
  tel_hops_ = registry->histogram(prefix + ".hops", 0.0,
                                  double(std::max(1, diameter + 1)),
                                  std::max(1, diameter + 1));
}

void Torus::observe_delivery(sim::SimTime now, int src, int dst, double bytes,
                             int hops, sim::SimTime deliver) {
  obs::flight::record_sim(
      obs::flight::Kind::kNocSend, "noc.send", now,
      (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
          static_cast<uint32_t>(dst));
  if (tel_messages_ != nullptr) tel_messages_->add();
  if (tel_latency_ != nullptr) tel_latency_->add(deliver - now);
  if (tel_hops_ != nullptr) tel_hops_->add(double(hops));
  if (trace_ != nullptr) {
    trace_->complete("packet", "noc", now * 1e-3,
                     (deliver - now) * 1e-3, obs::kPidNoc,
                     src,
                     {{"dst", double(dst)},
                      {"bytes", bytes},
                      {"hops", double(hops)}});
  }
}

void Torus::observe_link(const LinkId& l, sim::SimTime start, double ser_ns) {
  if (trace_ != nullptr) {
    trace_->complete("ser", "noc.link", start * 1e-3, ser_ns * 1e-3,
                     obs::kPidNoc, num_nodes() + link_index(l),
                     {{"node", double(l.node)}, {"dir", double(l.dir)}});
  }
}

void Torus::export_link_occupancy(obs::MetricsRegistry* registry,
                                  const std::string& prefix,
                                  double elapsed_ns) const {
  ANTON_CHECK(registry != nullptr);
  ANTON_CHECK_MSG(elapsed_ns > 0, "elapsed window must be positive");
  obs::Histo* occ =
      registry->histogram(prefix + ".link.occupancy", 0.0, 1.0, 50);
  double max_frac = 0, sum_frac = 0;
  for (double b : link_busy_total_) {
    const double frac = std::min(1.0, b / elapsed_ns);
    occ->add(frac);
    max_frac = std::max(max_frac, frac);
    sum_frac += frac;
  }
  registry->gauge(prefix + ".link.occupancy.max")->set(max_frac);
  registry->gauge(prefix + ".link.occupancy.mean")
      ->set(link_busy_total_.empty()
                ? 0.0
                : sum_frac / double(link_busy_total_.size()));
}

void Torus::check_quiescent() const {
  ANTON_CHECK_MSG(delivered_ == injected_,
                  "packet conservation violated: injected "
                      << injected_ << " delivered " << delivered_ << " ("
                      << injected_ - delivered_ << " in flight)");
  // Pool recycle half of the invariant: every delivered packet's callable
  // slot must have been returned to the queue's free list — the arena
  // balances (slots == free + pending) or a slot leaked / double-freed.
  queue_->check_arena();
}

const NocStats& Torus::stats() {
  // Conservation: the model must never deliver a packet it did not inject,
  // and every packet still in flight holds exactly one pending event (its
  // pooled delivery callable) — fewer pending events than in-flight packets
  // means a delivery event was lost or its slot recycled early.
  ANTON_CHECK_INVARIANT(delivered_ <= injected_,
                        "packet over-delivery: injected "
                            << injected_ << " delivered " << delivered_);
  ANTON_CHECK_INVARIANT(injected_ - delivered_ <= queue_->pending(),
                        "in-flight packets ("
                            << injected_ - delivered_
                            << ") exceed pending events ("
                            << queue_->pending()
                            << "): a pooled delivery callable was lost");
  stats_.max_link_busy_ns = busiest_link_ns();
  stats_.total_link_busy_ns = 0;
  for (double b : link_busy_total_) stats_.total_link_busy_ns += b;
  return stats_;
}

double Torus::busiest_link_ns() const {
  double m = 0;
  for (double b : link_busy_total_) m = std::max(m, b);
  return m;
}

void Torus::reset_stats() {
  stats_ = NocStats{};
  std::fill(link_busy_total_.begin(), link_busy_total_.end(), 0.0);
  // link_free_ deliberately *not* reset: occupancy persists across phases
  // within a run; reset_stats only clears accounting (see reset_time()).
}

void Torus::reset_time() {
  std::fill(link_free_.begin(), link_free_.end(), 0.0);
  route_seq_ = 0;
}

}  // namespace anton::noc
