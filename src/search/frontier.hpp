// The exact integer frontier behind the six priority search policies.
//
// PriorityStrong (search/strong_algorithms.hpp) and PriorityGreedyWeak
// (search/weak_algorithms.hpp) keep a set of known vertices and keep taking
// its best member, where "best" is the order rule
//
//   key descending, then id ascending,
//
// and the key is the vertex's degree, its id, or minus its id. All three
// keys are integers and constant per vertex, so no generic heap is needed:
//
//  * kMinId / kMaxId: a 64-ary multi-level bitset over vertex ids. Level 0
//    has one bit per vertex, and bit i of level l + 1 is set iff word i of
//    level l is nonzero. The smallest (largest) member is found by
//    descending from the one-word top level with count-trailing-zeros
//    (count-leading-zeros), one word per level. A push can only improve
//    the best member, so it is cached: top() is O(1) and a pop pays one
//    descent.
//  * kDegree: a flat binary max-heap of packed 64-bit keys, the degree in
//    the high half and 2^32 − 1 − id in the low half, so plain integer
//    order is (degree descending, id ascending). The bitset records
//    membership, so the heap never holds a vertex twice.
//
// The frontier is a set: pushing a member is a no-op. The policies only
// drop a member that can never qualify again (a requested vertex, or one
// with no unexplored edge), and a key never changes, so a set pops the
// same vertices in the same order as a heap that holds duplicates.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "search/local_view.hpp"

namespace sfs::search {

/// Which key a Frontier orders by. Ties on the key go to the smaller id.
enum class FrontierOrder : std::uint8_t {
  kDegree,  ///< highest degree first
  kMinId,   ///< smallest id (oldest vertex) first
  kMaxId,   ///< largest id (youngest vertex) first
};

class Frontier {
 public:
  explicit Frontier(FrontierOrder order) : order_(order) { reset(0); }

  /// Empties the set and sizes it for ids [0, n). Costs O(n/64) word
  /// writes and keeps the buffers' capacity.
  void reset(std::size_t n);

  /// Inserts known vertex `v` (`view` supplies its degree); a no-op if `v`
  /// is already a member.
  void push(const LocalView& view, graph::VertexId v);

  /// push() for each vertex of `vs`, in order.
  void push(const LocalView& view, std::span<const graph::VertexId> vs);

  [[nodiscard]] bool empty() const noexcept {
    return words_[level_begin_[levels_ - 1]] == 0;
  }

  /// The best member by (key descending, id ascending). Requires !empty().
  [[nodiscard]] graph::VertexId top() const;

  /// Removes top(). Requires !empty().
  void pop();

 private:
  static constexpr std::uint64_t kIdMask = 0xFFFFFFFFu;

  /// Sets v's bit; false if it was already set.
  bool insert(graph::VertexId v);
  void erase(graph::VertexId v);
  /// The smallest (kMinId) or largest (kMaxId) set bit. Requires !empty().
  [[nodiscard]] graph::VertexId descend() const;

  FrontierOrder order_;
  std::vector<std::uint64_t> words_;  // every level, level 0 first
  // Start of each level in words_; 64^6 > 2^32 ids, so 6 levels suffice.
  std::array<std::size_t, 6> level_begin_{};
  std::size_t levels_ = 0;
  std::vector<std::uint64_t> heap_;  // kDegree only: packed keys
  // Id orders only: the best member, kept current by push and pop so that
  // top() costs no descent; kNoVertex when empty.
  graph::VertexId best_ = graph::kNoVertex;
};

// ---------------------------------------------------------------------
// Inline: push, top and pop run once or more per probe.
// ---------------------------------------------------------------------

inline bool Frontier::insert(graph::VertexId v) {
  std::size_t i = v;
  for (std::size_t l = 0; l < levels_; ++l, i >>= 6) {
    std::uint64_t& w = words_[level_begin_[l] + (i >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (l == 0 && (w & bit) != 0) return false;
    const bool was_empty = w == 0;
    w |= bit;
    if (!was_empty) break;  // the levels above already mark this word
  }
  return true;
}

inline void Frontier::erase(graph::VertexId v) {
  std::size_t i = v;
  for (std::size_t l = 0; l < levels_; ++l, i >>= 6) {
    std::uint64_t& w = words_[level_begin_[l] + (i >> 6)];
    w &= ~(std::uint64_t{1} << (i & 63));
    if (w != 0) break;  // the word still has members: keep its mark above
  }
}

inline void Frontier::push(const LocalView& view, graph::VertexId v) {
  if (!insert(v)) return;
  if (order_ == FrontierOrder::kMinId) {
    best_ = std::min(best_, v);  // kNoVertex is larger than any id
    return;
  }
  if (order_ == FrontierOrder::kMaxId) {
    if (best_ == graph::kNoVertex || v > best_) best_ = v;
    return;
  }
  const std::size_t degree = view.degree(v);
  SFS_REQUIRE(degree <= kIdMask, "degree does not fit the frontier key");
  heap_.push_back((static_cast<std::uint64_t>(degree) << 32) | (kIdMask - v));
  std::push_heap(heap_.begin(), heap_.end());
}

inline void Frontier::push(const LocalView& view,
                           std::span<const graph::VertexId> vs) {
  if (order_ != FrontierOrder::kDegree) {
    for (const graph::VertexId v : vs) push(view, v);
    return;
  }
  // Each degree read is a random load into the CSR offsets: start them a
  // few vertices ahead.
  constexpr std::size_t kAhead = 8;
  for (std::size_t i = 0; i < std::min(kAhead, vs.size()); ++i) {
    view.prefetch_degree(vs[i]);
  }
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i + kAhead < vs.size()) view.prefetch_degree(vs[i + kAhead]);
    push(view, vs[i]);
  }
}

inline graph::VertexId Frontier::top() const {
  if (order_ != FrontierOrder::kDegree) return best_;
  return static_cast<graph::VertexId>(kIdMask - (heap_.front() & kIdMask));
}

inline graph::VertexId Frontier::descend() const {
  // At each level, `i` is the index of the word to look in, and its lowest
  // (highest) set bit names the word one level down; at level 0 it names
  // the vertex.
  std::size_t i = 0;
  for (std::size_t l = levels_; l-- > 0;) {
    const std::uint64_t w = words_[level_begin_[l] + i];
    const int bit = order_ == FrontierOrder::kMinId ? std::countr_zero(w)
                                                    : 63 - std::countl_zero(w);
    i = (i << 6) | static_cast<std::size_t>(bit);
  }
  return static_cast<graph::VertexId>(i);
}

inline void Frontier::pop() {
  const graph::VertexId v = top();
  erase(v);
  if (order_ == FrontierOrder::kDegree) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  } else {
    best_ = empty() ? graph::kNoVertex : descend();
  }
}

}  // namespace sfs::search
