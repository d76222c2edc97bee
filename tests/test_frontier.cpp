// Order test for the six priority search policies (search/frontier.hpp).
//
// Each policy is stepped through a hand-driven LocalView. Before every
// probe, next() must name the vertex a brute-force scan picks by the order
// rule, key descending and then id ascending, over the known vertices that
// are not yet requested (strong model) or still have an unexplored edge
// (weak model). In the weak model an edge is explored exactly when it has
// been probed, so the brute force keeps its own record of the probed edges
// instead of reading the view's stamps. Failed probes and restarts follow
// the runner's rules (search/runner.hpp), so the masked runs check the
// order after a restart too.
#include "search/frontier.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "generator_families.hpp"
#include "graph/builder.hpp"
#include "search/policy.hpp"

namespace {

using sfs::graph::EdgeId;
using sfs::graph::Graph;
using sfs::graph::GraphBuilder;
using sfs::graph::VertexId;
using sfs::search::KnowledgeModel;
using sfs::search::LivenessView;
using sfs::search::LocalView;
using sfs::search::SearchWorkspace;

enum class Key { kDegree, kMinId, kMaxId };

struct Priority {
  const char* name;
  KnowledgeModel model;
  Key key;
};

constexpr Priority kPriorities[] = {
    {"degree-greedy-strong", KnowledgeModel::kStrong, Key::kDegree},
    {"min-id-strong", KnowledgeModel::kStrong, Key::kMinId},
    {"max-id-strong", KnowledgeModel::kStrong, Key::kMaxId},
    {"degree-greedy", KnowledgeModel::kWeak, Key::kDegree},
    {"min-id-greedy", KnowledgeModel::kWeak, Key::kMinId},
    {"max-id-greedy", KnowledgeModel::kWeak, Key::kMaxId},
};

std::int64_t key_of(Key key, const Graph& g, VertexId v) {
  switch (key) {
    case Key::kDegree:
      return static_cast<std::int64_t>(g.degree(v));
    case Key::kMinId:
      return -static_cast<std::int64_t>(v);
    case Key::kMaxId:
      return static_cast<std::int64_t>(v);
  }
  return 0;
}

// Edge ids drive() has probed in the weak model, one flag per edge.
using Probed = std::vector<bool>;

// First incidence slot of `v` whose edge has not been probed, by a plain
// scan, or -1 if there is none.
std::int64_t first_unprobed_slot(const Graph& g, const Probed& probed,
                                 VertexId v) {
  const auto inc = g.incident(v);
  for (std::size_t slot = 0; slot < inc.size(); ++slot) {
    if (!probed[inc[slot]]) return static_cast<std::int64_t>(slot);
  }
  return -1;
}

bool candidate(const Graph& g, const LocalView& view, const Probed& probed,
               VertexId v) {
  if (!view.is_known(v)) return false;
  if (view.model() == KnowledgeModel::kStrong) {
    return !view.vertex_requested(v);
  }
  return first_unprobed_slot(g, probed, v) >= 0;
}

// The best candidate among `ids`, or -1 if there is none.
std::int64_t brute_best(const Graph& g, const LocalView& view,
                        const Probed& probed, Key key,
                        const std::vector<VertexId>& ids) {
  std::int64_t best = -1;
  for (const VertexId v : ids) {
    if (!candidate(g, view, probed, v)) continue;
    const auto b = static_cast<VertexId>(best);
    if (best < 0 || key_of(key, g, v) > key_of(key, g, b) ||
        (key_of(key, g, v) == key_of(key, g, b) && v < b)) {
      best = v;
    }
  }
  return best;
}

// Every vertex with an edge: the only ones a search from a vertex with an
// edge can know.
std::vector<VertexId> touched(const Graph& g) {
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) ids.push_back(v);
  }
  return ids;
}

struct DriveLimits {
  std::size_t max_steps = std::numeric_limits<std::size_t>::max();
  /// Failed probes in a row tolerated before the policy restarts.
  std::size_t max_consecutive_failures =
      std::numeric_limits<std::size_t>::max();
};

struct Driven {
  std::size_t steps = 0;
  std::size_t restarts = 0;
};

// Steps policy `p` through `view` until it gives up, disagrees with the
// brute force, or makes limits.max_steps probes. A failed weak probe is
// not observed, a strong policy is never told its answer, and a streak of
// failures past the limit restarts the policy on the view's retained
// knowledge, as the runner does.
Driven drive(const Graph& g, LocalView& view, const Priority& p,
             const std::vector<VertexId>& ids, const DriveLimits& limits,
             const std::string& who) {
  const auto policy = sfs::search::find_policy(p.name)->make();
  EXPECT_EQ(policy->model(), p.model) << who;
  // Stepped through the model's own interface, the one model() names.
  auto* const strong =
      policy->model() == KnowledgeModel::kStrong
          ? static_cast<sfs::search::StrongSearcher*>(policy.get())
          : nullptr;
  auto* const weak =
      policy->model() == KnowledgeModel::kWeak
          ? static_cast<sfs::search::WeakSearcher*>(policy.get())
          : nullptr;
  sfs::rng::Rng rng(1);
  const auto start = [&] {
    if (strong) strong->start(view, rng);
    if (weak) weak->start(view, rng);
  };
  Driven d;
  std::size_t failures = 0;
  Probed probed(g.num_edges(), false);
  start();
  for (; d.steps < limits.max_steps; ++d.steps) {
    const std::int64_t want = brute_best(g, view, probed, p.key, ids);
    const std::size_t failed_before = view.failed_requests();
    if (strong) {
      const auto got = strong->next(view, rng);
      EXPECT_EQ(got ? std::int64_t{*got} : -1, want)
          << who << " step " << d.steps;
      if (!got || *got != want) break;
      (void)view.request_vertex_span(*got);
    } else {
      const auto got = weak->next(view, rng);
      EXPECT_EQ(got ? std::int64_t{got->u} : -1, want)
          << who << " step " << d.steps;
      if (!got || got->u != want) break;
      const std::int64_t want_slot = first_unprobed_slot(g, probed, got->u);
      EXPECT_EQ(std::int64_t{got->slot}, want_slot)
          << who << " step " << d.steps;
      if (got->slot != want_slot) break;
      probed[g.incident(got->u)[got->slot]] = true;
      const VertexId revealed = view.request_edge(*got);
      if (view.failed_requests() == failed_before) {
        weak->observe(view, *got, revealed);
      }
    }
    if (view.failed_requests() == failed_before) {
      failures = 0;
    } else if (++failures > limits.max_consecutive_failures) {
      failures = 0;
      ++d.restarts;
      start();
    }
  }
  return d;
}

std::string label(const std::string& graph, const Priority& p,
                  VertexId start) {
  return graph + " " + p.name + " from " + std::to_string(start);
}

TEST(PriorityOrder, MatchesBruteForceOnEveryFamily) {
  SearchWorkspace ws;
  std::size_t steps = 0;
  for (const auto& family : sfs::test::generator_families(200)) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      sfs::rng::Rng rng(seed);
      const Graph g = family.make(rng);
      const auto ids = touched(g);
      const VertexId target = ids.back();
      for (const VertexId start : {ids.front(), ids[ids.size() / 2]}) {
        for (const auto& p : kPriorities) {
          LocalView view(g, p.model, start, target, ws);
          steps += drive(g, view, p, ids, {}, label(family.name, p, start))
                       .steps;
        }
      }
    }
  }
  EXPECT_GT(steps, 10000u);
}

// A graph on 2^17 ids built to stress the key, not the search:
//  * a ring of 300 vertices with ids from 3 to 129,470, so most sit above
//    2^16, and 50 chords: degrees 2 to 4, with many ties;
//  * hubs h1 < h2 < h3 of one equal degree, 4 + 2 * hub_loops;
//  * hub h0 of degree 4 + 2 * big_loops. With big_loops = 35,000 that is
//    70,004, which does not fit 16 bits, and h1's degree is chosen so that
//    a 16-bit or 8-bit truncated key ranks h1 above h0.
// The start s links to the four hubs, and h0's first unexplored edge after
// s leads to h1, so both models know h0 and h1 early. Self-loops carry the
// hub degrees and come last in edge order.
struct TieGraph {
  Graph g;
  std::vector<VertexId> ids;
  VertexId s = 0;
};

TieGraph tie_graph(std::size_t big_loops, std::size_t hub_loops) {
  constexpr VertexId s = 130'000, h0 = 130'001, h1 = 130'002, h2 = 130'003,
                     h3 = 130'005;
  std::vector<VertexId> ring;
  for (VertexId i = 0; i < 300; ++i) ring.push_back(3 + 433 * i);
  GraphBuilder b(std::size_t{1} << 17);
  b.add_edge(s, h0);
  b.add_edge(h0, h1);
  for (const VertexId h : {h1, h2, h3}) b.add_edge(s, h);
  b.add_edge(h2, h3);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    b.add_edge(ring[i], ring[(i + 1) % ring.size()]);
  }
  for (std::size_t i = 0; i < 150; i += 3) b.add_edge(ring[i], ring[i + 150]);
  const VertexId hubs[] = {h0, h1, h2, h3};
  for (std::size_t k = 0; k < 4; ++k) {
    b.add_edge(hubs[k], ring[10 + 70 * k]);
    b.add_edge(hubs[k], ring[45 + 70 * k]);
  }
  for (std::size_t i = 0; i < big_loops; ++i) b.add_edge(h0, h0);
  for (const VertexId h : {h1, h2, h3}) {
    for (std::size_t i = 0; i < hub_loops; ++i) b.add_edge(h, h);
  }
  TieGraph t{b.build(), {}, s};
  t.ids = touched(t.g);
  return t;
}

TEST(PriorityOrder, MatchesBruteForceWithManyTiesAndHighIds) {
  const TieGraph big = tie_graph(35'000, 2'685);
  const std::size_t d0 = big.g.degree(130'001);
  const std::size_t d1 = big.g.degree(130'002);
  ASSERT_EQ(d0, 70'004u);
  ASSERT_EQ(d1, big.g.degree(130'003));
  ASSERT_EQ(d1, big.g.degree(130'005));
  // The key must not be truncated: h0 outranks h1, but neither 16 nor 8
  // low bits of the degree say so.
  ASSERT_LT(d1, d0);
  ASSERT_GT(d1 & 0xFFFFu, d0 & 0xFFFFu);
  ASSERT_GT(d1 & 0xFFu, d0 & 0xFFu);

  SearchWorkspace ws;
  std::size_t steps = 0;
  for (const auto& p : kPriorities) {
    // Opening h0 in the weak model takes 70,004 probes; the first 2,000
    // cover the h0 / h1 choice.
    DriveLimits limits;
    if (p.model == KnowledgeModel::kWeak) limits.max_steps = 2'000;
    LocalView view(big.g, p.model, big.s, big.ids.front(), ws);
    steps += drive(big.g, view, p, big.ids, limits, label("ties", p, big.s))
                 .steps;
  }
  // Small hubs: every policy runs to exhaustion through the ties.
  const TieGraph small = tie_graph(0, 20);
  for (const auto& p : kPriorities) {
    for (const VertexId start : {small.s, small.ids.front()}) {
      LocalView view(small.g, p.model, start, small.ids.back(), ws);
      const Driven d = drive(small.g, view, p, small.ids, {},
                             label("small ties", p, start));
      EXPECT_GE(d.steps, small.ids.size()) << p.name;
      steps += d.steps;
    }
  }
  EXPECT_GT(steps, 10000u);
}

TEST(PriorityOrder, MatchesBruteForceAcrossMaskedRestarts) {
  // Departed vertices and dead links make probes fail; three failures in
  // a row restart the policy on what the view already knows.
  SearchWorkspace ws;
  std::size_t strong_restarts = 0;
  for (const auto& family : sfs::test::generator_families(300)) {
    sfs::rng::Rng rng(5);
    const Graph g = family.make(rng);
    const auto ids = touched(g);
    const VertexId start = ids.front();
    const VertexId target = ids.back();
    std::vector<std::uint8_t> vertex_alive(g.num_vertices(), 1);
    std::vector<std::uint8_t> edge_alive(g.num_edges(), 1);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (v % 3 == 1 && v != start && v != target) vertex_alive[v] = 0;
    }
    for (EdgeId e = 0; e < g.num_edges(); e += 7) edge_alive[e] = 0;
    const LivenessView liveness{vertex_alive, edge_alive};
    for (const auto& p : kPriorities) {
      LocalView view(g, p.model, start, target, ws, liveness);
      const Driven d = drive(g, view, p, ids, {.max_consecutive_failures = 2},
                             label(family.name + " masked", p, start));
      if (p.model == KnowledgeModel::kStrong) strong_restarts += d.restarts;
    }
  }
  EXPECT_GT(strong_restarts, 0u);
}

TEST(PriorityOrder, WeakRestartReseedsFromEveryKnownVertex) {
  // Edges 0-1, 0-2, 0-3, dead links 1-4 .. 1-8, then the live link 1-9.
  // Three dead links in a row restart the policy. Seeded from the start
  // alone it would give up once 0 is exhausted; seeded from every known
  // vertex it resumes at 1 and reaches 9.
  GraphBuilder b(10);
  for (VertexId v = 1; v <= 3; ++v) b.add_edge(0, v);
  for (VertexId v = 4; v <= 9; ++v) b.add_edge(1, v);
  const Graph g = b.build();
  std::vector<std::uint8_t> vertex_alive(g.num_vertices(), 1);
  std::vector<std::uint8_t> edge_alive(g.num_edges(), 1);
  for (EdgeId e = 3; e <= 7; ++e) edge_alive[e] = 0;
  const auto ids = touched(g);
  SearchWorkspace ws;
  for (const auto& p : kPriorities) {
    if (p.model != KnowledgeModel::kWeak) continue;
    LocalView view(g, p.model, 0, 9, ws, {vertex_alive, edge_alive});
    const Driven d = drive(g, view, p, ids, {.max_consecutive_failures = 2},
                           label("dead links", p, 0));
    EXPECT_EQ(d.restarts, 1u) << p.name;
    EXPECT_TRUE(view.target_found()) << p.name;
  }
}

}  // namespace
