#include "search/frontier.hpp"

namespace sfs::search {

void Frontier::reset(std::size_t n) {
  SFS_REQUIRE(n <= graph::kNoVertex, "frontier id range exceeds VertexId");
  // Level l + 1 has one bit per word of level l; stop at a one-word level.
  std::size_t words = 0;
  std::size_t count = std::max<std::size_t>(n, 1);
  levels_ = 0;
  do {
    count = (count + 63) / 64;
    level_begin_[levels_++] = words;
    words += count;
  } while (count > 1);
  words_.assign(words, 0);
  heap_.clear();
  best_ = graph::kNoVertex;
}

}  // namespace sfs::search
