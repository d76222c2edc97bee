#include "gen/config_model.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/builder.hpp"

namespace sfs::gen {

using graph::Graph;
using graph::VertexId;

Graph configuration_model(const std::vector<std::uint32_t>& degrees,
                          const ConfigModelOptions& opts, rng::Rng& rng) {
  SFS_REQUIRE(!degrees.empty(), "empty degree sequence");
  const std::size_t stubs = stub_count(degrees);
  SFS_REQUIRE(stubs % 2 == 0, "stub count must be even");

  std::vector<VertexId> stub_list;
  stub_list.reserve(stubs);
  for (std::size_t v = 0; v < degrees.size(); ++v) {
    for (std::uint32_t k = 0; k < degrees[v]; ++k)
      stub_list.push_back(static_cast<VertexId>(v));
  }
  rng.shuffle(stub_list);

  graph::GraphBuilder b(degrees.size());
  b.reserve_edges(stubs / 2);
  if (!opts.erase_defects) {
    for (std::size_t i = 0; i + 1 < stub_list.size(); i += 2) {
      b.add_edge(stub_list[i], stub_list[i + 1]);
    }
  } else {
    // Erased model: skip loops and repeated unordered pairs.
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(stubs / 2);
    for (std::size_t i = 0; i + 1 < stub_list.size(); i += 2) {
      const VertexId u = stub_list[i];
      const VertexId v = stub_list[i + 1];
      if (u == v) continue;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(std::min(u, v)) << 32) |
          std::max(u, v);
      if (!seen.insert(key).second) continue;
      b.add_edge(u, v);
    }
  }
  return b.build();
}

Graph power_law_configuration_graph(std::size_t n,
                                    const PowerLawSequenceParams& seq_params,
                                    const ConfigModelOptions& opts,
                                    rng::Rng& rng) {
  return configuration_model(power_law_degree_sequence(n, seq_params, rng),
                             opts, rng);
}

}  // namespace sfs::gen
