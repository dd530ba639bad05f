#include "md/neighborlist.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "common/error.h"
#include "geom/pair_pass.h"

namespace anton {

namespace {
// Below this, threading a build or a rebuild check costs more than it saves.
constexpr size_t kSerialThreshold = 2048;

// The 8-bit digits that hold every row key j - i - 1, which is below n.
int radix_digits(int n) {
  if (n <= (1 << 8)) return 1;
  if (n <= (1 << 16)) return 2;
  if (n <= (1 << 24)) return 3;
  return 4;
}

// Sorts row i's len neighbours ascending by an LSD radix sort on the key
// j - i - 1: one counting pass fills every digit's histogram, then each
// digit takes an exclusive prefix and a stable scatter, alternating
// between the row and scratch.  Returns where the sorted row ends up: the
// row after an even number of digits, scratch after an odd one.
template <int kDigits>
const int* radix_sort_row(int* row, int len, int i, int* scratch) {
  uint32_t counts[kDigits][256] = {};
  const uint32_t base = static_cast<uint32_t>(i) + 1;
  for (int k = 0; k < len; ++k) {
    const uint32_t key = static_cast<uint32_t>(row[k]) - base;
    for (int d = 0; d < kDigits; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  int* src = row;
  int* dst = scratch;
  for (int d = 0; d < kDigits; ++d) {
    uint32_t sum = 0;
    for (uint32_t& c : counts[d]) {
      const uint32_t x = c;
      c = sum;
      sum += x;
    }
    for (int k = 0; k < len; ++k) {
      const uint32_t key = static_cast<uint32_t>(src[k]) - base;
      dst[counts[d][(key >> (8 * d)) & 0xFF]++] = src[k];
    }
    std::swap(src, dst);
  }
  return src;
}

// Sorts the CSR rows [b, e) and drops each row's excluded j with a cursor
// over the ascending exclusions_of(i), writing the kept entries back to
// the front of the row and their count to kept[i].  The merge reads the
// sorted data where the sort left it; in place, it never writes ahead of
// what it reads.  scratch holds the longest row.
template <int kDigits>
void sort_rows(const Topology& top, const int64_t* starts, int* list,
               size_t b, size_t e, int* scratch, int* kept) {
  ANTON_HOT_NOALLOC();
  for (size_t i = b; i < e; ++i) {
    int* const row = list + starts[i];
    const int len = static_cast<int>(starts[i + 1] - starts[i]);
    const int* const sorted =
        radix_sort_row<kDigits>(row, len, static_cast<int>(i), scratch);
    const auto ex = top.exclusions_of(static_cast<int>(i));
    auto x = ex.begin();
    int* out = row;
    for (const int* p = sorted; p != sorted + len; ++p) {
      while (x != ex.end() && *x < *p) ++x;
      if (x == ex.end() || *x != *p) *out++ = *p;
    }
    kept[i] = static_cast<int>(out - row);
  }
}
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
// per-row radix sort so the layout matches the serial build exactly.  Each
// sorted row drops its excluded j on the way back into the row, and a last
// pass closes the gaps between rows.
void NeighborList::merge_shards(const Topology& top, unsigned nshards,
                                ThreadPool* pool) {
  const int n = top.num_atoms();
  starts_.assign(static_cast<size_t>(n) + 1, 0);
  int64_t total = 0;
  int64_t longest = 0;
  for (int i = 0; i < n; ++i) {
    int64_t cursor = total;
    for (unsigned t = 0; t < nshards; ++t) {
      auto& counts = shards_[t];
      const int c = counts[static_cast<size_t>(i)];
      counts[static_cast<size_t>(i)] = static_cast<int>(cursor);
      cursor += c;
    }
    longest = std::max(longest, cursor - total);
    total = cursor;
    starts_[static_cast<size_t>(i) + 1] = total;
  }
  // The row sort's scratch, one row per thread as long as the longest row,
  // sits past the pairs in the list's own storage.  Held in a vector of
  // its own, the few KB allocated after the list kept the heap from
  // returning a freed list and raised md_dhfr's peak RSS by 22 MB.
  const size_t stride = static_cast<size_t>(longest);
  const unsigned nthreads = pool != nullptr ? pool->size() : 1;
  list_.resize(static_cast<size_t>(total) + nthreads * stride);
  int* const scratch = list_.data() + total;

  auto fill = [&](unsigned t) {
    if (t < nshards) {
      fill_range(layer_bounds_[t], layer_bounds_[t + 1], shards_[t].data());
    }
  };
  // The fill cursors are spent; shard 0's take each row's kept length.
  int* kept = shards_[0].data();
  const int digits = radix_digits(n);
  auto sort_range = [&](size_t b, size_t e, int* buf) {
    const int64_t* starts = starts_.data();
    int* list = list_.data();
    switch (digits) {
      case 1: sort_rows<1>(top, starts, list, b, e, buf, kept); break;
      case 2: sort_rows<2>(top, starts, list, b, e, buf, kept); break;
      case 3: sort_rows<3>(top, starts, list, b, e, buf, kept); break;
      default: sort_rows<4>(top, starts, list, b, e, buf, kept); break;
    }
  };
  if (pool != nullptr) {
    pool->for_each_thread(fill);
    // The half list front-loads pairs onto low indices, so the rows split
    // at equal cumulative-pair quantiles of starts_, as the pair kernel's
    // atoms do.
    auto row_bound = [&](unsigned t) {
      if (t == nthreads) return static_cast<size_t>(n);
      return static_cast<size_t>(
          std::lower_bound(starts_.begin(), starts_.end(),
                           total * t / nthreads) -
          starts_.begin());
    };
    pool->for_each_thread([&](unsigned t) {
      sort_range(row_bound(t), row_bound(t + 1), scratch + t * stride);
    });
  } else {
    for (unsigned t = 0; t < nshards; ++t) fill(t);
    sort_range(0, static_cast<size_t>(n), scratch);
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
  // Written so that a non-finite position counts as moved: the rebuild
  // then reaches the pair pass's check, which names the atom.
  auto moved_far = [&](size_t i) {
    return !(norm2(box.min_image(positions[i], ref_positions_[i])) <= limit2);
  };
  const size_t n = positions.size();
  if (pool == nullptr || pool->size() <= 1 || n < kSerialThreshold) {
    for (size_t i = 0; i < n; ++i) {
      if (moved_far(i)) return true;
    }
    return false;
  }
  std::atomic<bool> moved{false};
  pool->parallel_for(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end;) {
      const size_t stop = std::min(end, i + 256);
      for (; i < stop; ++i) {
        if (moved_far(i)) {
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
