// The Cooper–Frieze general web-graph model (paper §1; Cooper & Frieze,
// "A general model of web graphs", RSA 22(3), 2003), rephrased as in the
// reproduced paper to use *indegree* for preferential choices.
//
// Evolution, per time step:
//   * with probability alpha, procedure NEW: a new vertex v is added
//     together with j ~ q outgoing edges from v; each terminal (head) is
//     chosen uniformly over existing vertices with probability beta, and
//     preferentially otherwise;
//   * with probability 1 - alpha, procedure OLD: an existing initial vertex
//     w is chosen (uniformly with probability delta, preferentially
//     otherwise) and j ~ p new outgoing edges are added from w; each
//     terminal is chosen uniformly with probability gamma, preferentially
//     otherwise.
//
// Preferential selection is indegree-proportional by default (the paper's
// rephrasing, enabling the full 0 < p <= 1 parameter range of the Móri
// analysis); total-degree preference is available behind a flag for
// comparison with the original CF03 statement.
//
// The process starts from a single vertex with one self-loop (so that
// preferential weights are initially positive) and is connected by
// construction: every NEW vertex immediately links into the existing graph,
// and OLD only adds edges.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "rng/discrete.hpp"
#include "rng/random.hpp"

namespace sfs::gen {

/// Which degree drives preferential choices.
enum class Preference {
  kInDegree,    // the reproduced paper's rephrasing
  kTotalDegree, // the original CF03 convention
};

/// Full parameter set. Defaults give a balanced mixed model.
struct CooperFriezeParams {
  /// P(procedure NEW) per step; the paper's theorem needs 0 < alpha < 1.
  double alpha = 0.5;
  /// P(terminal chosen uniformly | NEW); 1-beta preferential.
  double beta = 0.5;
  /// P(terminal chosen uniformly | OLD); 1-gamma preferential.
  double gamma = 0.5;
  /// P(initial vertex of OLD chosen uniformly); 1-delta preferential.
  double delta = 0.5;
  /// Out-edge count distribution for OLD: weights for j = 1, 2, ....
  std::vector<double> p = {1.0};
  /// Out-edge count distribution for NEW: weights for j = 1, 2, ....
  std::vector<double> q = {1.0};
  Preference preference = Preference::kInDegree;

  /// Validates ranges; throws std::invalid_argument if inconsistent.
  void validate() const;
};

/// Result of running the process: the graph plus vertex birth order.
struct CooperFriezeGraph {
  graph::Graph graph;
  /// Vertices in birth order; birth_order[k] is the id of the k-th vertex
  /// added (ids equal indices here since vertices are numbered by birth,
  /// kept for clarity and future-proofing).
  std::vector<graph::VertexId> birth_order;
  /// Number of evolution steps performed.
  std::size_t steps = 0;
};

/// Runs the process until the graph has exactly `n_vertices` vertices
/// (counting the seed vertex), then stops. Expected number of steps is
/// about n_vertices / alpha.
[[nodiscard]] CooperFriezeGraph cooper_frieze(std::size_t n_vertices,
                                              const CooperFriezeParams& params,
                                              rng::Rng& rng);

/// Incremental form, mirroring MoriProcess, used by the Cooper–Frieze
/// equivalence experiment (E3/E10) to observe edge endpoints as drawn.
class CooperFriezeProcess {
 public:
  explicit CooperFriezeProcess(const CooperFriezeParams& params);

  /// Performs one evolution step. Returns true if the step executed
  /// procedure NEW (added a vertex).
  bool step(rng::Rng& rng);

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return num_vertices_;
  }
  [[nodiscard]] std::size_t num_steps() const noexcept { return steps_; }

  /// Heads (terminals) of the edges emitted by the most recent step.
  [[nodiscard]] const std::vector<graph::VertexId>& last_heads()
      const noexcept {
    return last_heads_;
  }

  /// Tail (initial vertex) of the edges emitted by the most recent step:
  /// the new vertex for NEW steps, the chosen existing vertex for OLD.
  [[nodiscard]] graph::VertexId last_tail() const noexcept {
    return last_tail_;
  }

  /// Materializes the current graph (including the seed self-loop).
  [[nodiscard]] graph::Graph graph() const;

 private:
  [[nodiscard]] graph::VertexId pick_terminal(double uniform_prob,
                                              rng::Rng& rng);
  [[nodiscard]] graph::VertexId pick_initial(rng::Rng& rng);
  [[nodiscard]] std::size_t sample_count(const rng::CdfSampler& dist,
                                         rng::Rng& rng);

  CooperFriezeParams params_;
  rng::CdfSampler p_dist_;
  rng::CdfSampler q_dist_;
  std::vector<graph::Edge> edges_;
  std::vector<graph::VertexId> pref_bag_;  // indegree or total-degree units
  std::vector<graph::VertexId> last_heads_;
  graph::VertexId last_tail_ = graph::kNoVertex;
  std::size_t num_vertices_ = 0;
  std::size_t steps_ = 0;
};

}  // namespace sfs::gen
