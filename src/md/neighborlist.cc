#include "md/neighborlist.h"

#include <algorithm>
#include <atomic>

#include "common/error.h"
#include "geom/pair_pass.h"

namespace anton {

namespace {
// Below this, threading a build or a rebuild check costs more than it saves.
constexpr size_t kSerialThreshold = 2048;
}  // namespace

NeighborList::NeighborList(double cutoff, double skin)
    : cutoff_(cutoff), skin_(skin) {
  ANTON_CHECK_MSG(cutoff > 0 && skin >= 0, "bad neighbour-list parameters");
}

NeighborList::~NeighborList() = default;

// Counts the pairs whose home cell lies in the pass's layers [z0, z1) into
// their rows (the lower atom index).
void NeighborList::count_range(int z0, int z1, int* counts) const {
  ANTON_HOT_NOALLOC();
  const PairPass& pass = *pass_;
  pass.for_each(z0, z1, [&](int s, int) { ++counts[pass.atom(s)]; });
}

// Walks the same pairs again, in the same order, writing each one's j at
// its row's cursor.
void NeighborList::fill_range(int z0, int z1, int* cursors) {
  ANTON_HOT_NOALLOC();
  const PairPass& pass = *pass_;
  int* list = list_.data();
  pass.for_each(z0, z1, [&](int s, int t) {
    list[cursors[pass.atom(s)]++] = pass.atom(t);
  });
}

// Counting pass: per-atom totals -> CSR starts_, shard counts -> scatter
// cursors (disjoint slots per shard), then a race-free fill walk and a
// per-atom sort so the layout matches the serial build exactly.  Each
// sorted row then drops its excluded j in place with a cursor over the
// ascending exclusions_of(i), and a last pass closes the gaps between rows.
void NeighborList::merge_shards(const Topology& top, unsigned nshards,
                                ThreadPool* pool) {
  const int n = top.num_atoms();
  starts_.assign(static_cast<size_t>(n) + 1, 0);
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    int64_t cursor = total;
    for (unsigned t = 0; t < nshards; ++t) {
      auto& counts = shards_[t];
      const int c = counts[static_cast<size_t>(i)];
      counts[static_cast<size_t>(i)] = static_cast<int>(cursor);
      cursor += c;
    }
    total = cursor;
    starts_[static_cast<size_t>(i) + 1] = total;
  }
  list_.resize(static_cast<size_t>(total));

  auto fill = [&](unsigned t) {
    if (t < nshards) {
      fill_range(layer_bounds_[t], layer_bounds_[t + 1], shards_[t].data());
    }
  };
  // The fill cursors are spent; shard 0's take each row's kept length.
  int* kept = shards_[0].data();
  auto sort_range = [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      int* const row = list_.data() + starts_[i];
      int* const row_end = list_.data() + starts_[i + 1];
      std::sort(row, row_end);
      const auto ex = top.exclusions_of(static_cast<int>(i));
      auto x = ex.begin();
      int* out = row;
      for (const int* p = row; p != row_end; ++p) {
        while (x != ex.end() && *x < *p) ++x;
        if (x == ex.end() || *x != *p) *out++ = *p;
      }
      kept[i] = static_cast<int>(out - row);
    }
  };
  if (pool != nullptr && nshards > 1) {
    pool->for_each_thread(fill);
    pool->parallel_for(static_cast<size_t>(n), sort_range);
  } else {
    for (unsigned t = 0; t < nshards; ++t) fill(t);
    sort_range(0, static_cast<size_t>(n));
  }

  // Rows only move down, so each copy reads ahead of what it writes.
  int64_t end = 0;
  for (int i = 0; i < n; ++i) {
    const auto row = list_.begin() + starts_[static_cast<size_t>(i)];
    if (row != list_.begin() + end) {
      std::copy(row, row + kept[i], list_.begin() + end);
    }
    starts_[static_cast<size_t>(i)] = end;
    end += kept[i];
  }
  starts_[static_cast<size_t>(n)] = end;
  list_.resize(static_cast<size_t>(end));
}

void NeighborList::build(const Box& box, std::span<const Vec3> positions,
                         const Topology& top, ThreadPool* pool) {
  const int n = static_cast<int>(positions.size());
  ANTON_CHECK(n == top.num_atoms());
  if (pass_ == nullptr) {
    pass_ = std::make_unique<PairPass>(box, positions, list_radius());
  } else {
    pass_->rebin(box, positions);
  }

  const bool threaded =
      pool != nullptr && positions.size() >= kSerialThreshold;
  pass_->split(threaded ? static_cast<int>(pool->size()) : 1, layer_bounds_);
  const unsigned nshards = static_cast<unsigned>(layer_bounds_.size()) - 1;
  if (shards_.size() < nshards) shards_.resize(nshards);
  for (unsigned t = 0; t < nshards; ++t) {
    shards_[t].assign(static_cast<size_t>(n), 0);
  }
  auto count = [&](unsigned t) {
    if (t < nshards) {
      count_range(layer_bounds_[t], layer_bounds_[t + 1], shards_[t].data());
    }
  };
  if (nshards > 1) {
    pool->for_each_thread(count);
  } else {
    count(0);
  }
  merge_shards(top, nshards, nshards > 1 ? pool : nullptr);

  ref_positions_.assign(positions.begin(), positions.end());

  if constexpr (kInvariantsEnabled) validate();
}

void NeighborList::validate() const {
  ANTON_CHECK_MSG(built(), "validate() on an unbuilt neighbour list");
  const int n = num_atoms();
  ANTON_CHECK_MSG(starts_[0] == 0, "CSR starts must begin at 0");
  ANTON_CHECK_MSG(starts_[static_cast<size_t>(n)] ==
                      static_cast<int64_t>(list_.size()),
                  "CSR starts must span the pair list exactly: starts["
                      << n << "]=" << starts_[static_cast<size_t>(n)]
                      << " list size " << list_.size());
  for (int i = 0; i < n; ++i) {
    const int64_t b = starts_[static_cast<size_t>(i)];
    const int64_t e = starts_[static_cast<size_t>(i) + 1];
    ANTON_CHECK_MSG(b <= e, "CSR starts not monotone at atom " << i);
    int prev = i;  // rows hold j > i, strictly ascending
    for (int64_t k = b; k < e; ++k) {
      const int j = list_[static_cast<size_t>(k)];
      ANTON_CHECK_MSG(j > prev && j < n,
                      "CSR row " << i << " malformed: neighbour " << j
                                 << " after " << prev << " (n=" << n << ")");
      prev = j;
    }
  }
}

bool NeighborList::needs_rebuild(const Box& box,
                                 std::span<const Vec3> positions,
                                 ThreadPool* pool) const {
  ANTON_HOT_NOALLOC();
  if (ref_positions_.size() != positions.size()) return true;
  const double limit = 0.5 * skin_;
  const double limit2 = limit * limit;
  const size_t n = positions.size();
  if (pool == nullptr || pool->size() <= 1 || n < kSerialThreshold) {
    for (size_t i = 0; i < n; ++i) {
      if (norm2(box.min_image(positions[i], ref_positions_[i])) > limit2) {
        return true;
      }
    }
    return false;
  }
  std::atomic<bool> moved{false};
  pool->parallel_for(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end;) {
      const size_t stop = std::min(end, i + 256);
      for (; i < stop; ++i) {
        if (norm2(box.min_image(positions[i], ref_positions_[i])) > limit2) {
          moved.store(true, std::memory_order_relaxed);
          return;
        }
      }
      if (moved.load(std::memory_order_relaxed)) return;
    }
  });
  return moved.load(std::memory_order_relaxed);
}

}  // namespace anton
