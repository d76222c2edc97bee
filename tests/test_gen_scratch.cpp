// Tests for the reusable Móri generation scratch (gen::GenScratch): the
// scratch-taking Móri overloads must produce graphs bit-identical to the
// fresh-allocation path (including when the scratch is recycled across
// shrinking and growing sizes), the builder's overflow guards must reject
// wrap-around arithmetic, and the harness-level scratch plumbing
// (sim/sweep, sim/scaling) must be a pure performance transform.
#include "gen/scratch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/mori.hpp"
#include "generator_families.hpp"
#include "graph/builder.hpp"
#include "sim/scaling.hpp"
#include "sim/sweep.hpp"

namespace {

using sfs::gen::GenScratch;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::kNoVertex;
using sfs::graph::VertexId;
using sfs::rng::Rng;

void expect_graph_equal(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  // Edge records in construction order determine the whole CSR, but audit
  // the derived structure too: incidence, adjacency and degrees.
  const auto ea = a.edges();
  const auto eb = b.edges();
  EXPECT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin()));
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto ia = a.incident(v);
    const auto ib = b.incident(v);
    ASSERT_EQ(ia.size(), ib.size()) << "vertex " << v;
    EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin()));
    const auto aa = a.adjacent(v);
    const auto ab = b.adjacent(v);
    EXPECT_TRUE(std::equal(aa.begin(), aa.end(), ab.begin()));
    EXPECT_EQ(a.in_degree(v), b.in_degree(v));
    EXPECT_EQ(a.out_degree(v), b.out_degree(v));
  }
}

// ---------------------------------------------- scratch == fresh, Móri

TEST(GenScratch, MoriMatchesFresh) {
  GenScratch scratch;
  Graph reused;
  for (const std::size_t n : {300u, 50u, 450u}) {
    Rng r1(n);
    Rng r2(n);
    const Graph fresh = sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, r1);
    sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, r2, scratch, reused);
    expect_graph_equal(fresh, reused);

    Rng r3(n ^ 0x77);
    Rng r4(n ^ 0x77);
    const Graph fresh_m =
        sfs::gen::merged_mori_graph(n, 3, sfs::gen::MoriParams{0.6}, r3);
    sfs::gen::merged_mori_graph(n, 3, sfs::gen::MoriParams{0.6}, r4, scratch,
                                reused);
    expect_graph_equal(fresh_m, reused);
  }
}

TEST(MergeConsecutive, FactorOneCopiesTheGraphOfEveryFamily) {
  // A merge factor of 1 copies the graph. That equals a rebuild from its
  // edge list because GraphBuilder is the only way to make a Graph.
  GenScratch scratch;
  Graph reused;
  for (const auto& family : sfs::test::generator_families(300)) {
    SCOPED_TRACE(family.name);
    Rng rng(9);
    const Graph g = family.make(rng);
    expect_graph_equal(sfs::gen::merge_consecutive(g, 1), g);
    sfs::gen::merge_consecutive(g, 1, scratch, reused);  // recycles `reused`
    expect_graph_equal(reused, g);
    GraphBuilder rebuild(g.num_vertices());
    for (const auto& e : g.edges()) rebuild.add_edge(e.tail, e.head);
    expect_graph_equal(rebuild.build(), g);
  }
}

// --------------------------------------------------- overflow hardening

TEST(GraphBuilderOverflow, ConstructorAndResetRejectOverflowingCounts) {
  EXPECT_THROW(GraphBuilder(std::numeric_limits<std::size_t>::max()),
               std::invalid_argument);
  GraphBuilder b;
  EXPECT_THROW(b.reset(static_cast<std::size_t>(kNoVertex) + 1),
               std::invalid_argument);
}

TEST(GraphBuilderOverflow, BarabasiAlbertRejectsOverflowingReserveMath) {
  // (n - 1) * m wraps in size_t; the checked multiplication must throw
  // instead of silently under-reserving (or building a bogus graph).
  Rng rng(1);
  const sfs::gen::BarabasiAlbertParams params{.m = 16};
  EXPECT_THROW((void)sfs::gen::barabasi_albert(
                   std::numeric_limits<std::size_t>::max() / 2, params, rng),
               std::invalid_argument);
}

// -------------------------------------------- scaling seed stream fix

TEST(ScalingSeeds, NearbySeedsDoNotAliasAcrossSizeIndices) {
  // Under the old derivation (point seed = mix64(seed ^ (0x9e37 + i))) two
  // experiments whose seeds differ by (0x9e37+i1) ^ (0x9e37+i2) — 0x0F for
  // adjacent indices — received identical replication streams at shifted
  // size indices. The tempered stream tags must keep them fully disjoint.
  auto capture = [](std::uint64_t seed) {
    std::vector<std::uint64_t> cell_seeds;
    (void)sfs::sim::measure_scaling(
        {10, 20, 30}, 4, seed,
        [&](std::size_t, std::uint64_t s) {
          cell_seeds.push_back(s);
          return 1.0;
        });
    return cell_seeds;
  };
  const auto a = capture(7);
  const auto b = capture(7 ^ 0x0F);
  const std::set<std::uint64_t> sa(a.begin(), a.end());
  EXPECT_EQ(sa.size(), a.size());  // distinct within one experiment
  for (const std::uint64_t s : b) {
    EXPECT_EQ(sa.count(s), 0u) << "seed stream shared across experiments";
  }
}

// ------------------------------------- harness-level scratch plumbing

void expect_identical_cost(const sfs::sim::PortfolioCost& a,
                           const sfs::sim::PortfolioCost& b) {
  ASSERT_EQ(a.policies.size(), b.policies.size());
  EXPECT_EQ(a.best, b.best);
  for (std::size_t i = 0; i < a.policies.size(); ++i) {
    const auto& pa = a.policies[i];
    const auto& pb = b.policies[i];
    EXPECT_EQ(pa.name, pb.name);
    EXPECT_EQ(pa.requests.mean, pb.requests.mean) << pa.name;
    EXPECT_EQ(pa.requests.stddev, pb.requests.stddev) << pa.name;
    EXPECT_EQ(pa.raw_requests.mean, pb.raw_requests.mean) << pa.name;
    EXPECT_EQ(pa.median_requests, pb.median_requests) << pa.name;
    EXPECT_EQ(pa.p90_requests, pb.p90_requests) << pa.name;
    EXPECT_EQ(pa.found_fraction, pb.found_fraction) << pa.name;
  }
}

TEST(SweepScratchFactory, WeakPortfolioMatchesPlainFactory) {
  const auto budget = sfs::search::RunBudget{.max_raw_requests = 200000};
  const sfs::sim::GraphFactory plain = [](Rng& rng) {
    return sfs::gen::merged_mori_graph(80, 2, sfs::gen::MoriParams{0.5}, rng);
  };
  const sfs::sim::ScratchGraphFactory reusing =
      [](Rng& rng, GenScratch& scratch, Graph& out) {
        sfs::gen::merged_mori_graph(80, 2, sfs::gen::MoriParams{0.5}, rng,
                                    scratch, out);
      };
  sfs::sim::RunPlan plan;
  plan.factory = plain;
  plan.endpoints = sfs::sim::oldest_to_newest();
  plan.reps = 8;
  plan.seed = 21;
  plan.budget = budget;
  const auto a = sfs::sim::measure_portfolio(plan);
  plan.factory = nullptr;
  plan.scratch_factory = reusing;
  const auto b = sfs::sim::measure_portfolio(plan);
  expect_identical_cost(a, b);
  // And the scratch path stays bit-identical under parallel fan-out.
  plan.threads = 4;
  const auto c = sfs::sim::measure_portfolio(plan);
  expect_identical_cost(a, c);
}

TEST(SweepScratchFactory, StrongPortfolioMatchesPlainFactory) {
  const sfs::sim::GraphFactory plain = [](Rng& rng) {
    return sfs::gen::mori_tree(120, sfs::gen::MoriParams{0.4}, rng);
  };
  const sfs::sim::ScratchGraphFactory reusing =
      [](Rng& rng, GenScratch& scratch, Graph& out) {
        sfs::gen::mori_tree(120, sfs::gen::MoriParams{0.4}, rng, scratch, out);
      };
  sfs::sim::RunPlan plan;
  plan.model = sfs::search::KnowledgeModel::kStrong;
  plan.factory = plain;
  plan.endpoints = sfs::sim::oldest_to_newest();
  plan.reps = 6;
  plan.seed = 9;
  const auto a = sfs::sim::measure_portfolio(plan);
  plan.factory = nullptr;
  plan.scratch_factory = reusing;
  plan.threads = 3;
  const auto b = sfs::sim::measure_portfolio(plan);
  expect_identical_cost(a, b);
}

TEST(ScalingScratchOverload, MatchesPlainOverload) {
  const std::vector<std::size_t> sizes{30, 60, 120};
  const auto plain = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    const Graph g = sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng);
    return static_cast<double>(g.num_edges());
  };
  const auto reusing = [](std::size_t n, std::uint64_t seed,
                          GenScratch& scratch) {
    Rng rng(seed);
    Graph g;
    sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng, scratch, g);
    return static_cast<double>(g.num_edges());
  };
  const auto a = sfs::sim::measure_scaling(sizes, 5, 31, plain);
  const auto b =
      sfs::sim::measure_scaling(sizes, 5, 31, reusing, {.threads = 4});
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].raw, b.points[i].raw);
    EXPECT_EQ(a.points[i].summary.mean, b.points[i].summary.mean);
  }
  EXPECT_EQ(a.fit.slope, b.fit.slope);
}

}  // namespace
