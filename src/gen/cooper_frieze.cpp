#include "gen/cooper_frieze.hpp"

#include "graph/builder.hpp"

namespace sfs::gen {

using graph::Edge;
using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

namespace {

bool is_probability(double x) { return x >= 0.0 && x <= 1.0; }

bool is_count_distribution(const std::vector<double>& w) {
  if (w.empty()) return false;
  double total = 0.0;
  for (const double x : w) {
    if (x < 0.0) return false;
    total += x;
  }
  return total > 0.0;
}

}  // namespace

void CooperFriezeParams::validate() const {
  SFS_REQUIRE(alpha > 0.0 && alpha < 1.0,
              "Cooper-Frieze alpha must be in (0,1)");
  SFS_REQUIRE(is_probability(beta), "beta must be in [0,1]");
  SFS_REQUIRE(is_probability(gamma), "gamma must be in [0,1]");
  SFS_REQUIRE(is_probability(delta), "delta must be in [0,1]");
  SFS_REQUIRE(is_count_distribution(p),
              "p must be a nonempty nonnegative weight vector");
  SFS_REQUIRE(is_count_distribution(q),
              "q must be a nonempty nonnegative weight vector");
}

CooperFriezeProcess::CooperFriezeProcess(const CooperFriezeParams& params)
    : params_(params),
      p_dist_(std::span<const double>(params.p)),
      q_dist_(std::span<const double>(params.q)) {
  params_.validate();
  init_seed_state();
}

CooperFriezeProcess::CooperFriezeProcess(const CooperFriezeParams& params,
                                         GenScratch& scratch)
    : params_(params),
      p_dist_(std::span<const double>(params.p)),
      q_dist_(std::span<const double>(params.q)) {
  params_.validate();
  edges_.swap(scratch.edges);
  pref_bag_.swap(scratch.pref_bag);
  edges_.clear();
  pref_bag_.clear();
  init_seed_state();
}

void CooperFriezeProcess::init_seed_state() {
  // Seed graph: one vertex with a self-loop, so every degree notion starts
  // positive and preferential choice is well defined from step one.
  num_vertices_ = 1;
  edges_.push_back(Edge{0, 0});
  pref_bag_.push_back(0);  // head unit
  if (params_.preference == Preference::kTotalDegree) {
    pref_bag_.push_back(0);  // tail unit as well
  }
}

void CooperFriezeProcess::release_scratch(GenScratch& scratch) noexcept {
  edges_.swap(scratch.edges);
  pref_bag_.swap(scratch.pref_bag);
}

std::size_t CooperFriezeProcess::sample_count(const rng::CdfSampler& dist,
                                              rng::Rng& rng) {
  return dist.sample(rng) + 1;  // weights are for j = 1, 2, ...
}

VertexId CooperFriezeProcess::pick_terminal(double uniform_prob,
                                            rng::Rng& rng) {
  if (rng.bernoulli(uniform_prob)) {
    return static_cast<VertexId>(rng.uniform_index(num_vertices_));
  }
  return pref_bag_[static_cast<std::size_t>(
      rng.uniform_index(pref_bag_.size()))];
}

VertexId CooperFriezeProcess::pick_initial(rng::Rng& rng) {
  // Initial vertex of procedure OLD: delta uniform, else preferential.
  return pick_terminal(params_.delta, rng);
}

bool CooperFriezeProcess::step(rng::Rng& rng) {
  ++steps_;
  last_heads_.clear();
  const bool is_new = rng.bernoulli(params_.alpha);
  VertexId tail;
  std::size_t j;
  double uniform_prob;
  if (is_new) {
    tail = static_cast<VertexId>(num_vertices_++);
    j = sample_count(q_dist_, rng);
    uniform_prob = params_.beta;
  } else {
    tail = pick_initial(rng);
    j = sample_count(p_dist_, rng);
    uniform_prob = params_.gamma;
  }
  last_tail_ = tail;
  for (std::size_t k = 0; k < j; ++k) {
    // NEW: terminals are chosen among the pre-existing vertices; the brand
    // new vertex never links to itself (it has no incident edge yet and the
    // uniform choice ranges over vertices that existed before the step).
    VertexId head;
    if (is_new) {
      if (rng.bernoulli(uniform_prob)) {
        head = static_cast<VertexId>(rng.uniform_index(num_vertices_ - 1));
      } else {
        head = pref_bag_[static_cast<std::size_t>(
            rng.uniform_index(pref_bag_.size()))];
      }
    } else {
      head = pick_terminal(uniform_prob, rng);
    }
    edges_.push_back(Edge{tail, head});
    last_heads_.push_back(head);
    pref_bag_.push_back(head);
    if (params_.preference == Preference::kTotalDegree) {
      pref_bag_.push_back(tail);
    }
  }
  return is_new;
}

Graph CooperFriezeProcess::graph() const {
  GraphBuilder b(num_vertices_);
  b.reserve_edges(edges_.size());
  for (const Edge& e : edges_) b.add_edge(e.tail, e.head);
  return b.build();
}

void CooperFriezeProcess::graph_into(GenScratch& scratch,
                                     Graph& out) const {
  scratch.builder.reset(num_vertices_);
  scratch.builder.reserve_edges(edges_.size());
  for (const Edge& e : edges_) scratch.builder.add_edge(e.tail, e.head);
  scratch.builder.build_into(out);
}

CooperFriezeGraph cooper_frieze(std::size_t n_vertices,
                                const CooperFriezeParams& params,
                                rng::Rng& rng) {
  GenScratch scratch;
  CooperFriezeGraph out;
  cooper_frieze(n_vertices, params, rng, scratch, out);
  return out;
}

void cooper_frieze(std::size_t n_vertices, const CooperFriezeParams& params,
                   rng::Rng& rng, GenScratch& scratch,
                   CooperFriezeGraph& out) {
  SFS_REQUIRE(n_vertices >= 1, "need at least one vertex");
  CooperFriezeProcess proc(params, scratch);
  while (proc.num_vertices() < n_vertices) (void)proc.step(rng);
  proc.graph_into(scratch, out.graph);
  proc.release_scratch(scratch);
  out.steps = proc.num_steps();
  out.birth_order.resize(out.graph.num_vertices());
  for (VertexId v = 0; v < out.graph.num_vertices(); ++v)
    out.birth_order[v] = v;
}

}  // namespace sfs::gen
