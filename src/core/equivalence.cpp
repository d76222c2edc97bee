#include "core/equivalence.hpp"

#include <cmath>

#include "rng/stream_audit.hpp"

namespace sfs::core {

using graph::VertexId;

bool event_holds(const std::vector<VertexId>& fathers, std::size_t a,
                 std::size_t b) {
  SFS_REQUIRE(a >= 2, "Lemma 2 needs a >= 2");
  SFS_REQUIRE(a <= b, "need a <= b");
  SFS_REQUIRE(b <= fathers.size(), "window exceeds tree size");
  // Paper vertex k is internal id k-1; its father must have paper id <= a,
  // i.e. internal id <= a-1.
  for (std::size_t k = a + 1; k <= b; ++k) {
    const VertexId father = fathers[k - 1];
    if (static_cast<std::size_t>(father) > a - 1) return false;
  }
  return true;
}

namespace {

EventEstimate finish_estimate(std::size_t hits, std::size_t reps) {
  EventEstimate est;
  est.reps = reps;
  est.hits = hits;
  if (reps > 0) {
    est.probability = static_cast<double>(hits) / static_cast<double>(reps);
    est.stderr_est = std::sqrt(est.probability * (1.0 - est.probability) /
                               static_cast<double>(reps));
  }
  return est;
}

}  // namespace

EventEstimate estimate_event_probability(double p, std::size_t a,
                                         std::size_t b, std::size_t reps,
                                         std::uint64_t seed) {
  SFS_REQUIRE(reps > 0, "need at least one replication");
  std::size_t hits = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    rng::Rng rng(rng::audited_stream_seed(seed, 0, rep));
    gen::MoriProcess proc(gen::MoriParams{p});
    // Growing to b vertices is enough: the event only constrains fathers of
    // vertices a+1..b, and fathers never change afterwards.
    proc.grow_to(b, rng);
    if (event_holds(proc.all_fathers(), a, b)) ++hits;
  }
  return finish_estimate(hits, reps);
}

WindowFeatureStats window_feature_stats(double p, std::size_t a,
                                        std::size_t b, std::size_t t,
                                        std::size_t reps,
                                        std::uint64_t seed) {
  SFS_REQUIRE(b >= a + 1, "empty window");
  SFS_REQUIRE(t >= b, "final time must cover the window");
  SFS_REQUIRE(reps > 0, "need at least one replication");
  const std::size_t w = b - a;
  WindowFeatureStats st;
  st.mean_final_indegree.assign(w, 0.0);
  st.leaf_probability.assign(w, 0.0);
  std::vector<std::size_t> indeg(w);

  for (std::size_t rep = 0; rep < reps; ++rep) {
    rng::Rng rng(rng::audited_stream_seed(seed, 0, rep));
    gen::MoriProcess proc(gen::MoriParams{p});
    proc.grow_to(b, rng);
    ++st.attempted;
    if (!event_holds(proc.all_fathers(), a, b)) continue;
    proc.grow_to(t, rng);
    ++st.accepted;
    // Final indegrees of the window's internal ids a..b-1 (paper ids
    // a+1..b), counted in one pass over the fathers.
    const auto& fathers = proc.all_fathers();
    indeg.assign(w, 0);
    for (std::size_t v = 1; v < fathers.size(); ++v) {
      const std::size_t father = fathers[v];
      if (father >= a && father < b) ++indeg[father - a];
    }
    for (std::size_t i = 0; i < w; ++i) {
      st.mean_final_indegree[i] += static_cast<double>(indeg[i]);
      if (indeg[i] == 0) st.leaf_probability[i] += 1.0;
    }
  }
  if (st.accepted > 0) {
    for (std::size_t i = 0; i < w; ++i) {
      st.mean_final_indegree[i] /= static_cast<double>(st.accepted);
      st.leaf_probability[i] /= static_cast<double>(st.accepted);
    }
  }
  return st;
}

EventEstimate estimate_cf_event_probability(
    const gen::CooperFriezeParams& params, std::size_t a, std::size_t b,
    std::size_t reps, std::uint64_t seed) {
  SFS_REQUIRE(a >= 1 && a <= b, "need 1 <= a <= b");
  SFS_REQUIRE(reps > 0, "need at least one replication");
  std::size_t hits = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    rng::Rng rng(rng::audited_stream_seed(seed, 0, rep));
    gen::CooperFriezeProcess proc(params);
    // Phase 1: grow to a vertices.
    while (proc.num_vertices() < a) (void)proc.step(rng);
    // Phase 2: continue until b vertices. The event requires every edge
    // endpoint chosen during the window — terminal heads of all steps and
    // the initial (tail) vertex of OLD steps — to be one of the first `a`
    // born vertices (ids < a, since CF numbers vertices by birth). Then no
    // window vertex is touched by anything except its own out-edges.
    bool ok = true;
    while (proc.num_vertices() < b && ok) {
      const bool was_new = proc.step(rng);
      for (const VertexId h : proc.last_heads()) {
        if (static_cast<std::size_t>(h) >= a) {
          ok = false;
          break;
        }
      }
      if (!was_new && ok && static_cast<std::size_t>(proc.last_tail()) >= a) {
        ok = false;
      }
    }
    if (ok) ++hits;
  }
  return finish_estimate(hits, reps);
}

}  // namespace sfs::core
