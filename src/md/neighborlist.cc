#include "md/neighborlist.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>

#include "common/error.h"
#include "geom/pair_pass.h"

namespace anton {

namespace {
// Below this, threading a build or a rebuild check costs more than it saves.
constexpr size_t kSerialThreshold = 2048;

// The bits of slot s's word at t0 whose partner slot s excludes:
// excl[begin, end) holds those partner slots.
uint64_t excluded_bits(const int* excl, int begin, int end, int t0) {
  uint64_t bits = 0;
  for (int k = begin; k < end; ++k) {
    const auto d = static_cast<unsigned>(excl[k] - t0);
    if (d < static_cast<unsigned>(PairPass::kWord)) bits |= uint64_t{1} << d;
  }
  return bits;
}
}  // namespace

NeighborList::NeighborList(double cutoff, double skin)
    : cutoff_(cutoff), skin_(skin) {
  ANTON_CHECK_MSG(cutoff > 0 && skin >= 0, "bad neighbour-list parameters");
}

NeighborList::~NeighborList() = default;

// Takes the pass's slot order and indexes each slot's excluded partner
// slots (Topology::exclusions_of holds each pair once, under the lower
// atom): a count per slot, a prefix, and a fill whose cursors, excl_start_
// itself, end one row ahead and shift back.  O(atoms + exclusions).
void NeighborList::index_exclusions(const Topology& top) {
  const int n = top.num_atoms();
  row_atoms_.assign(pass_->slot_atoms(), pass_->slot_atoms() + n);
  slot_of_.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) slot_of_[static_cast<size_t>(row_atoms_[s])] = s;
  excl_start_.assign(static_cast<size_t>(n) + 1, 0);
  int* start = excl_start_.data();
  const int* slot = slot_of_.data();
  for (int i = 0; i < n; ++i) {
    for (int j : top.exclusions_of(i)) {
      ++start[slot[i] + 1];
      ++start[slot[j] + 1];
    }
  }
  for (int s = 0; s < n; ++s) start[s + 1] += start[s];
  excl_.resize(static_cast<size_t>(start[n]));
  int* excl = excl_.data();
  for (int i = 0; i < n; ++i) {
    for (int j : top.exclusions_of(i)) {
      excl[start[slot[i]]++] = slot[j];
      excl[start[slot[j]]++] = slot[i];
    }
  }
  std::copy_backward(start, start + n, start + n + 1);
  start[0] = 0;
}

// Adds the kept hits of each word the pass emits from the slots of layers
// [z0, z1) to its slot's row count, starts_[s + 1].
void NeighborList::count_range(int z0, int z1) {
  ANTON_HOT_NOALLOC();
  const int* excl = excl_.data();
  const int* excl_start = excl_start_.data();
  int64_t* counts = starts_.data() + 1;
  pass_->for_each_word(z0, z1, [&](int s, int t0, uint64_t word) {
    word &= ~excluded_bits(excl, excl_start[s], excl_start[s + 1], t0);
    counts[s] += std::popcount(word);
  });
}

// Walks the same words again, in the same order, writing each kept hit's
// atom at its row's cursor, starts_[s], which ends at the row's end.
void NeighborList::fill_range(int z0, int z1) {
  ANTON_HOT_NOALLOC();
  const int* excl = excl_.data();
  const int* excl_start = excl_start_.data();
  const int* atoms = pass_->slot_atoms();
  int64_t* cursors = starts_.data();
  int* list = list_.data();
  pass_->for_each_word(z0, z1, [&](int s, int t0, uint64_t word) {
    word &= ~excluded_bits(excl, excl_start[s], excl_start[s + 1], t0);
    int64_t c = cursors[s];
    for (; word != 0; word &= word - 1) {
      list[c++] = atoms[t0 + std::countr_zero(word)];
    }
    cursors[s] = c;
  });
}

void NeighborList::build(const Box& box, std::span<const Vec3> positions,
                         const Topology& top, ThreadPool* pool) {
  const int n = static_cast<int>(positions.size());
  ANTON_CHECK(n == top.num_atoms());
  if (positions.size() < kSerialThreshold) pool = nullptr;
  if (pass_ == nullptr) {
    pass_ = std::make_unique<PairPass>(box, positions, list_radius(), pool);
  } else {
    pass_->rebin(box, positions, pool);
  }
  index_exclusions(top);
  seen_.resize(static_cast<size_t>(n));

  pass_->split(pool != nullptr ? static_cast<int>(pool->size()) : 1,
               layer_bounds_);
  const unsigned nshards = static_cast<unsigned>(layer_bounds_.size()) - 1;
  auto run = [&](auto&& walk) {
    auto shard = [&](unsigned t) {
      if (t < nshards) walk(layer_bounds_[t], layer_bounds_[t + 1]);
    };
    if (nshards > 1) {
      pool->for_each_thread(shard);
    } else {
      shard(0);
    }
  };
  starts_.assign(static_cast<size_t>(n) + 1, 0);
  run([&](int z0, int z1) { count_range(z0, z1); });
  int64_t* starts = starts_.data();
  for (int s = 0; s < n; ++s) starts[s + 1] += starts[s];
  list_.resize(static_cast<size_t>(starts[n]));
  run([&](int z0, int z1) { fill_range(z0, z1); });
  // Each cursor ended at its row's end, which is the next row's start.
  std::copy_backward(starts, starts + n, starts + n + 1);
  starts[0] = 0;

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
  ANTON_CHECK_MSG(row_atoms_.size() == static_cast<size_t>(n) &&
                      slot_of_.size() == static_cast<size_t>(n) &&
                      seen_.size() == static_cast<size_t>(n),
                  "row atoms do not cover the " << n << " rows");
  // Every row atom lies in range and maps back to its row, so no two rows
  // share an atom: row_atom is a permutation.
  for (int r = 0; r < n; ++r) {
    const int i = row_atoms_[static_cast<size_t>(r)];
    ANTON_CHECK_MSG(i >= 0 && i < n && slot_of_[static_cast<size_t>(i)] == r,
                    "row " << r << "'s atom " << i
                           << " is not a permutation entry (n=" << n << ")");
  }
  std::fill(seen_.begin(), seen_.end(), -1);
  for (int r = 0; r < n; ++r) {
    const int64_t b = starts_[static_cast<size_t>(r)];
    const int64_t e = starts_[static_cast<size_t>(r) + 1];
    ANTON_CHECK_MSG(b <= e, "CSR starts not monotone at row " << r);
    const int i = row_atoms_[static_cast<size_t>(r)];
    for (int64_t k = b; k < e; ++k) {
      const int j = list_[static_cast<size_t>(k)];
      ANTON_CHECK_MSG(j >= 0 && j < n && j != i,
                      "CSR row " << r << " (atom " << i
                                 << ") malformed: neighbour " << j
                                 << " (n=" << n << ")");
      ANTON_CHECK_MSG(seen_[static_cast<size_t>(j)] != r,
                      "CSR row " << r << " (atom " << i
                                 << ") holds neighbour " << j << " twice");
      seen_[static_cast<size_t>(j)] = r;
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
