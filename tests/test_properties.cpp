// Cross-model property tests: invariants that must hold for every
// (generator, search policy) combination, swept with TEST_P.
#include <gtest/gtest.h>

#include <tuple>

#include "gen/barabasi_albert.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/mori.hpp"
#include "graph/algorithms.hpp"
#include "search/policy.hpp"
#include "search/runner.hpp"
#include "sim/sweep.hpp"

namespace {

using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::rng::Rng;

enum class Model { kMoriHalf, kMoriHigh, kMergedMori, kCooperFrieze, kBa };

Graph make_model(Model model, std::size_t n, Rng& rng) {
  switch (model) {
    case Model::kMoriHalf:
      return sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
    case Model::kMoriHigh:
      return sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.9}, rng);
    case Model::kMergedMori:
      return sfs::gen::merged_mori_graph(n, 3, sfs::gen::MoriParams{0.5},
                                         rng);
    case Model::kCooperFrieze: {
      sfs::gen::CooperFriezeParams params;
      return sfs::gen::cooper_frieze(n, params, rng).graph;
    }
    case Model::kBa:
      return sfs::gen::barabasi_albert(
          n, sfs::gen::BarabasiAlbertParams{2}, rng);
  }
  throw std::logic_error("unknown model");
}

std::string model_name(Model m) {
  switch (m) {
    case Model::kMoriHalf: return "mori_p05";
    case Model::kMoriHigh: return "mori_p09";
    case Model::kMergedMori: return "merged_mori";
    case Model::kCooperFrieze: return "cooper_frieze";
    case Model::kBa: return "barabasi_albert";
  }
  return "?";
}

using Combo = std::tuple<Model, std::size_t>;  // model x policy index

class ModelPolicyProperty : public ::testing::TestWithParam<Combo> {};

TEST_P(ModelPolicyProperty, SearchInvariants) {
  const auto [model, policy_idx] = GetParam();
  Rng graph_rng(0xBEEF);
  const Graph g = make_model(model, 250, graph_rng);
  ASSERT_TRUE(sfs::graph::is_connected(g)) << model_name(model);

  auto portfolio = sfs::search::make_searchers(
      sfs::search::resolve_policies(sfs::search::KnowledgeModel::kWeak, {}));
  auto& policy = *portfolio.at(policy_idx);
  Rng rng(0xF00D);
  const auto target = static_cast<VertexId>(g.num_vertices() - 1);
  const auto r = sfs::search::run_search(
      g, 0, target, policy, rng,
      sfs::search::RunBudget{.max_raw_requests = 2000000});

  // 1. On a connected graph with a generous raw budget, the target is
  //    found (walk policies rely on the budget being ample at n=250).
  EXPECT_TRUE(r.found) << model_name(model) << "/" << policy.name();
  // 2. Charged requests never exceed the edge count.
  EXPECT_LE(r.requests, g.num_edges());
  // 3. Raw requests dominate charged ones.
  EXPECT_GE(r.raw_requests, r.requests);
  // 4. The reported path has at least 1 edge (start != target) and at most
  //    n - 1 edges.
  EXPECT_GE(r.path_length, 1u);
  EXPECT_LT(r.path_length, g.num_vertices());
  // 5. The path is no shorter than the true distance.
  EXPECT_GE(r.path_length, sfs::graph::distance(g, 0, target));
}

constexpr Model kModels[] = {Model::kMoriHalf, Model::kMoriHigh,
                             Model::kMergedMori, Model::kCooperFrieze,
                             Model::kBa};

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelPolicyProperty,
    ::testing::Combine(::testing::ValuesIn(kModels),
                       ::testing::Range<std::size_t>(0, 10)),
    [](const ::testing::TestParamInfo<Combo>& param_info) {
      return model_name(std::get<0>(param_info.param)) + "_policy" +
             std::to_string(std::get<1>(param_info.param));
    });

class ModelStructureProperty : public ::testing::TestWithParam<Model> {};

TEST_P(ModelStructureProperty, EvolvingGraphBasics) {
  Rng rng(0xCAFE);
  const Graph g = make_model(GetParam(), 600, rng);
  EXPECT_EQ(g.num_vertices(), 600u);
  EXPECT_TRUE(sfs::graph::is_connected(g));
  // Handshake.
  std::size_t total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) total += g.degree(v);
  EXPECT_EQ(total, 2 * g.num_edges());
  // Small world: diameter far below n.
  EXPECT_LT(sfs::graph::pseudo_diameter(g), 60u);
}

TEST_P(ModelStructureProperty, DeterministicAcrossRuns) {
  Rng a(0xD1CE);
  Rng b(0xD1CE);
  const Graph g1 = make_model(GetParam(), 150, a);
  const Graph g2 = make_model(GetParam(), 150, b);
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  for (sfs::graph::EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).tail, g2.edge(e).tail);
    EXPECT_EQ(g1.edge(e).head, g2.edge(e).head);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ModelStructureProperty,
                         ::testing::ValuesIn(kModels),
                         [](const ::testing::TestParamInfo<Model>& param_info) {
                           return model_name(param_info.param);
                         });

}  // namespace
