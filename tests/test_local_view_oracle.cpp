// Differential oracle for LocalView's request accounting: a naive model of
// the request semantics that search/local_view.hpp quotes, kept in plain
// sets (known vertices, explored edges, requested vertices), a discovery
// order and a first-revealer map, with no stamps and no slot cursors. The
// tests drive it and a LocalView side by side with seeded random request
// sequences and compare everything a searcher can observe after every
// request.
#include "search/local_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/config_model.hpp"
#include "gen/mori.hpp"
#include "rng/random.hpp"

namespace {

using sfs::graph::EdgeId;
using sfs::graph::Graph;
using sfs::graph::kNoVertex;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::search::KnowledgeModel;
using sfs::search::LivenessView;
using sfs::search::LocalView;
using sfs::search::SearchWorkspace;

bool alive(const std::vector<std::uint8_t>& mask, std::size_t i) {
  return mask.empty() || mask[i] != 0;
}

// The request semantics, read straight off the model: a weak request
// (u, e) reveals e's other endpoint and is charged once per edge; a strong
// request for u reveals every neighbour of u and is charged once per
// vertex. Under a liveness mask a probe of a dead edge or departed vertex
// fails, is never charged and reveals nothing; a failed weak probe still
// explores its edge and a failed strong one still requests its vertex; a
// strong open skips dead links but reveals departed endpoints.
class OracleView {
 public:
  OracleView(const Graph& g, KnowledgeModel model, VertexId start,
             VertexId target, const std::vector<std::uint8_t>& vertex_alive,
             const std::vector<std::uint8_t>& edge_alive)
      : g_(g),
        model_(model),
        target_(target),
        vertex_alive_(vertex_alive),
        edge_alive_(edge_alive) {
    reveal(start, kNoVertex);
  }

  VertexId request_edge(VertexId u, EdgeId e) {
    ++raw_;
    const VertexId v = far_end(e, u);
    if (!alive(edge_alive_, e) || !alive(vertex_alive_, v)) {
      ++failed_;
      explored_.insert(e);
      return kNoVertex;
    }
    if (explored_.insert(e).second) {
      ++requests_;
      if (!known_.contains(v)) reveal(v, u);
    }
    return v;
  }

  void request_vertex(VertexId u) {
    ++raw_;
    if (!alive(vertex_alive_, u)) {
      ++failed_;
      requested_.insert(u);
      return;
    }
    if (!requested_.insert(u).second) return;
    ++requests_;
    for (const EdgeId e : g_.incident(u)) {
      if (!alive(edge_alive_, e)) continue;
      const VertexId v = far_end(e, u);
      if (!known_.contains(v)) reveal(v, u);
    }
  }

  // The neighbour list a strong answer carries, in incidence order.
  [[nodiscard]] std::vector<VertexId> neighbours(VertexId u) const {
    std::vector<VertexId> out;
    for (const EdgeId e : g_.incident(u)) out.push_back(far_end(e, u));
    return out;
  }

  [[nodiscard]] bool known(VertexId v) const { return known_.contains(v); }
  [[nodiscard]] const std::vector<VertexId>& order() const { return order_; }
  [[nodiscard]] VertexId discoverer(VertexId v) const {
    const auto it = revealer_.find(v);
    return it == revealer_.end() ? kNoVertex : it->second;
  }
  [[nodiscard]] bool target_found() const { return known(target_); }

  [[nodiscard]] bool vertex_requested(VertexId u) const {
    if (model_ == KnowledgeModel::kStrong) return requested_.contains(u);
    return known(u) && !first_unexplored_slot(u).has_value();
  }

  [[nodiscard]] std::optional<std::uint32_t> first_unexplored_slot(
      VertexId v) const {
    const auto inc = g_.incident(v);
    for (std::uint32_t slot = 0; slot < inc.size(); ++slot) {
      if (!explored_.contains(inc[slot])) return slot;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::vector<VertexId> path() const {
    std::vector<VertexId> out;
    for (VertexId v = target_; v != kNoVertex; v = discoverer(v)) {
      out.insert(out.begin(), v);
    }
    return out;
  }

  [[nodiscard]] std::size_t requests() const { return requests_; }
  [[nodiscard]] std::size_t raw_requests() const { return raw_; }
  [[nodiscard]] std::size_t failed_requests() const { return failed_; }

 private:
  [[nodiscard]] VertexId far_end(EdgeId e, VertexId u) const {
    const auto& edge = g_.edge(e);
    EXPECT_TRUE(edge.tail == u || edge.head == u) << "edge " << e;
    return edge.tail == u ? edge.head : edge.tail;
  }
  void reveal(VertexId v, VertexId via) {
    known_.insert(v);
    order_.push_back(v);
    revealer_.emplace(v, via);
  }

  const Graph& g_;
  KnowledgeModel model_;
  VertexId target_;
  const std::vector<std::uint8_t>& vertex_alive_;
  const std::vector<std::uint8_t>& edge_alive_;
  std::set<VertexId> known_;
  std::set<EdgeId> explored_;
  std::set<VertexId> requested_;
  std::vector<VertexId> order_;
  std::map<VertexId, VertexId> revealer_;
  std::size_t requests_ = 0;
  std::size_t raw_ = 0;
  std::size_t failed_ = 0;
};

// Everything a searcher can read off the view, against the oracle.
::testing::AssertionResult agree(const Graph& g, const LocalView& view,
                                 const OracleView& oracle) {
  const auto order = view.known_vertices();
  if (!std::ranges::equal(order, oracle.order())) {
    return ::testing::AssertionFailure() << "known order";
  }
  if (view.requests() != oracle.requests() ||
      view.raw_requests() != oracle.raw_requests() ||
      view.failed_requests() != oracle.failed_requests()) {
    return ::testing::AssertionFailure()
           << "counts " << view.requests() << "/" << view.raw_requests()
           << "/" << view.failed_requests() << " against "
           << oracle.requests() << "/" << oracle.raw_requests() << "/"
           << oracle.failed_requests();
  }
  if (view.target_found() != oracle.target_found()) {
    return ::testing::AssertionFailure() << "target_found";
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (view.is_known(v) != oracle.known(v)) {
      return ::testing::AssertionFailure() << "is_known(" << v << ")";
    }
    if (view.discoverer(v) != oracle.discoverer(v)) {
      return ::testing::AssertionFailure() << "discoverer(" << v << ")";
    }
    if (view.vertex_requested(v) != oracle.vertex_requested(v)) {
      return ::testing::AssertionFailure() << "vertex_requested(" << v << ")";
    }
  }
  if (view.model() == KnowledgeModel::kWeak) {
    for (const VertexId v : oracle.order()) {
      if (view.first_unexplored_slot(v) != oracle.first_unexplored_slot(v)) {
        return ::testing::AssertionFailure()
               << "first_unexplored_slot(" << v << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

struct Family {
  std::string name;
  std::function<Graph(std::size_t, Rng&)> make;
};

// Móri trees, merged Móri graphs with m = 2 (self-loops and parallel
// edges), Barabási–Albert, and the configuration model with its defects
// kept.
std::vector<Family> families() {
  return {
      {"mori-tree",
       [](std::size_t n, Rng& rng) {
         return sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
       }},
      {"merged-mori",
       [](std::size_t n, Rng& rng) {
         return sfs::gen::merged_mori_graph(n, 2, sfs::gen::MoriParams{0.5},
                                            rng);
       }},
      {"barabasi-albert",
       [](std::size_t n, Rng& rng) {
         return sfs::gen::barabasi_albert(n, {.m = 2}, rng);
       }},
      {"configuration",
       [](std::size_t n, Rng& rng) {
         return sfs::gen::power_law_configuration_graph(
             n, {.exponent = 2.3, .d_min = 1}, {.erase_defects = false}, rng);
       }},
  };
}

// What the runs covered, so a test can insist on its own reach.
struct Coverage {
  std::size_t requests = 0;
  std::size_t repeats = 0;  // raw requests that were not charged
  std::size_t failed = 0;
  std::size_t found = 0;
  std::size_t loops = 0;
  std::size_t parallel = 0;
};

void count_defects(const Graph& g, Coverage& cov) {
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const auto& e : g.edges()) {
    if (e.is_loop()) ++cov.loops;
    const auto key = std::minmax(e.tail, e.head);
    if (!seen.insert(key).second) ++cov.parallel;
  }
}

// One run: a random start and target, random masks when `masked`, then
// 3m weak or 2n strong requests drawn from the known vertices (slots
// uniform), one in ten repeating the previous request verbatim.
void drive(const Graph& g, KnowledgeModel model, bool masked,
           std::uint64_t seed, SearchWorkspace& ws, Coverage& cov) {
  const std::size_t n = g.num_vertices();
  Rng rng(seed);
  VertexId start = static_cast<VertexId>(rng.uniform_index(n));
  for (int tries = 0; tries < 64 && g.degree(start) == 0; ++tries) {
    start = static_cast<VertexId>(rng.uniform_index(n));
  }
  const auto target = static_cast<VertexId>(rng.uniform_index(n));
  std::vector<std::uint8_t> vertex_alive;
  std::vector<std::uint8_t> edge_alive;
  if (masked) {
    for (std::size_t v = 0; v < n; ++v) {
      vertex_alive.push_back(rng.bernoulli(0.85) ? 1 : 0);
    }
    vertex_alive[start] = vertex_alive[target] = 1;
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      edge_alive.push_back(rng.bernoulli(0.85) ? 1 : 0);
    }
  }
  LocalView view(g, model, start, target, ws,
                 LivenessView{vertex_alive, edge_alive});
  OracleView oracle(g, model, start, target, vertex_alive, edge_alive);
  ASSERT_TRUE(agree(g, view, oracle)) << "before any request";

  const bool weak = model == KnowledgeModel::kWeak;
  const std::size_t steps = weak ? 3 * g.num_edges() : 2 * n;
  std::optional<sfs::search::WeakRequest> last;
  for (std::size_t step = 0; step < steps; ++step) {
    sfs::search::WeakRequest req;
    if (last && rng.bernoulli(0.1)) {
      req = *last;
    } else {
      const auto& known = oracle.order();
      req.u = known[rng.uniform_index(known.size())];
      if (weak) {
        if (g.degree(req.u) == 0) continue;
        req.slot =
            static_cast<std::uint32_t>(rng.uniform_index(g.degree(req.u)));
      }
    }
    last = req;
    if (weak) {
      const VertexId got = view.request_edge(req);
      const VertexId want =
          oracle.request_edge(req.u, g.incident(req.u)[req.slot]);
      ASSERT_EQ(got, want) << "step " << step;
    } else {
      const auto got = view.request_vertex_span(req.u);
      oracle.request_vertex(req.u);
      const auto want = alive(vertex_alive, req.u)
                            ? oracle.neighbours(req.u)
                            : std::vector<VertexId>{};
      ASSERT_TRUE(std::ranges::equal(got, want)) << "step " << step;
    }
    ASSERT_TRUE(agree(g, view, oracle)) << "step " << step;
  }
  if (view.target_found()) {
    EXPECT_EQ(view.discovery_path(), oracle.path());
    ++cov.found;
  }
  cov.requests += view.raw_requests();
  cov.repeats += view.raw_requests() - view.requests() - view.failed_requests();
  cov.failed += view.failed_requests();
}

// Both models share one workspace throughout, and the graph size
// alternates, so every run also starts on stamps and array sizes left by
// runs of the other model and of other sizes.
void check_families(KnowledgeModel first) {
  SearchWorkspace ws;
  Coverage cov;
  for (const auto& family : families()) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      const Graph g = family.make(seed % 2 == 0 ? 160 : 40, rng);
      count_defects(g, cov);
      for (const bool masked : {false, true}) {
        for (const KnowledgeModel model :
             {first, first == KnowledgeModel::kWeak ? KnowledgeModel::kStrong
                                                    : KnowledgeModel::kWeak}) {
          SCOPED_TRACE(family.name + " seed " + std::to_string(seed) +
                       (masked ? " masked " : " static ") +
                       (model == KnowledgeModel::kWeak ? "weak" : "strong"));
          drive(g, model, masked, 100 * seed + (masked ? 1 : 0), ws, cov);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(cov.requests, 0u);
  EXPECT_GT(cov.repeats, 0u);
  EXPECT_GT(cov.failed, 0u);
  EXPECT_GT(cov.found, 0u);
  EXPECT_GT(cov.loops, 0u);
  EXPECT_GT(cov.parallel, 0u);
}

TEST(LocalViewOracle, WeakFirstAgreesOnEveryFamily) {
  check_families(KnowledgeModel::kWeak);
}

TEST(LocalViewOracle, StrongFirstAgreesOnEveryFamily) {
  check_families(KnowledgeModel::kStrong);
}

}  // namespace
