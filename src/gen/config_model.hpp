// Molloy–Reed configuration model (MR95): uniform random multigraph with a
// prescribed degree sequence, built by pairing stubs uniformly at random.
//
// This is the "pure random graph" family of the paper's related-work
// section: degrees of neighbors are independent, in contrast with the
// evolving models where degree and age correlate — the distinction the
// paper stresses when explaining why mean-field search analyses (Adamic et
// al.) do not transfer to evolving graphs.
#pragma once

#include <cstdint>
#include <vector>

#include "gen/degree_sequence.hpp"
#include "graph/graph.hpp"
#include "rng/random.hpp"

namespace sfs::gen {

struct ConfigModelOptions {
  /// If true, self-loops and parallel edges produced by the pairing are
  /// deleted afterwards ("erased configuration model"); realized degrees
  /// may then fall slightly below the prescription, but the degree
  /// distribution tail is preserved.
  bool erase_defects = false;
};

/// Wires the given degree sequence (sum must be even). Multigraph unless
/// erase_defects. Edge orientation is arbitrary (tail = first stub).
[[nodiscard]] graph::Graph configuration_model(
    const std::vector<std::uint32_t>& degrees, const ConfigModelOptions& opts,
    rng::Rng& rng);

/// Convenience: power-law degree sequence + wiring in one call.
[[nodiscard]] graph::Graph power_law_configuration_graph(
    std::size_t n, const PowerLawSequenceParams& seq_params,
    const ConfigModelOptions& opts, rng::Rng& rng);

}  // namespace sfs::gen
