// Differential oracle for LocalView's request accounting: the set-based
// model of tests/oracle_view.hpp (no stamps, no slot cursors) and a
// LocalView, driven side by side with seeded random request sequences,
// compared on everything a searcher can observe after every request.
#include "search/local_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/config_model.hpp"
#include "gen/mori.hpp"
#include "oracle_view.hpp"
#include "rng/random.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::search::KnowledgeModel;
using sfs::search::LivenessView;
using sfs::search::LocalView;
using sfs::search::SearchWorkspace;
using sfs::test::alive;
using sfs::test::OracleView;

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
