#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "rng/random.hpp"
#include "rng/stream_audit.hpp"

namespace perfbench {

void Fnv1a::add_u64(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::add_f64(double v) noexcept {
  add_u64(std::bit_cast<std::uint64_t>(v));
}

void Fnv1a::add_str(const std::string& s) noexcept {
  add_u64(s.size());
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::add_result(const sfs::search::SearchResult& r) noexcept {
  add_u64(r.found ? 1 : 0);
  add_u64(r.requests);
  add_u64(r.raw_requests);
  add_u64(r.failed_requests);
  add_u64(r.path_length);
  add_u64(r.budget_exhausted ? 1 : 0);
  add_u64(r.gave_up ? 1 : 0);
  add_u64(r.restarts);
  add_u64(r.abandoned ? 1 : 0);
}

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open_spans;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t op,
                     std::uint64_t parent, std::string_view label)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.label = label;
  span_.op = op;
  span_.thread = thread_index();
  if (parent != kInherit) {
    span_.parent = parent;
  } else if (!t_open_spans.empty()) {
    span_.parent = t_open_spans.back();
  }
  {
    const std::lock_guard<std::mutex> lock(tracer_->mu_);
    span_.id = tracer_->next_id_++;
  }
  t_open_spans.push_back(span_.id);
  span_.start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  t_open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(std::move(span_));
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::count(std::uint64_t op, std::string name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  counts_.push_back(Count{op, std::move(name), value});
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    sfs::sim::JsonObjectWriter j;
    j.str_field("kind", "span");
    j.int_field("id", s.id);
    j.int_field("parent", s.parent);
    j.str_field("name", s.name);
    if (!s.label.empty()) j.str_field("label", s.label);
    j.int_field("op", s.op);
    j.int_field("thread", s.thread);
    j.raw_field("start_ns", std::to_string(s.start_ns));
    j.raw_field("end_ns", std::to_string(s.end_ns));
    out << j.str() << '\n';
  }
  for (const Count& c : counts_) {
    sfs::sim::JsonObjectWriter j;
    j.str_field("kind", "count");
    j.int_field("op", c.op);
    j.str_field("name", c.name);
    j.raw_field("value", json_number(c.value));
    out << j.str() << '\n';
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

std::string metric_key(const std::string& policy) {
  std::string key = policy;
  for (char& c : key) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
    if (!keep) c = '_';
  }
  return key;
}

void count_search_batch(Tracer& tracer, std::size_t op,
                        const std::string& policy,
                        std::span<const sfs::search::SearchResult> results) {
  double raw = 0.0;
  double charged = 0.0;
  double failed = 0.0;
  double restarts = 0.0;
  double abandoned = 0.0;
  for (const sfs::search::SearchResult& r : results) {
    raw += static_cast<double>(r.raw_requests);
    charged += static_cast<double>(r.requests);
    failed += static_cast<double>(r.failed_requests);
    restarts += static_cast<double>(r.restarts);
    abandoned += r.abandoned ? 1.0 : 0.0;
  }
  tracer.count(op, "search." + metric_key(policy) + ".probes_raw", raw);
  tracer.count(op, "search.probes_raw", raw);
  tracer.count(op, "search.probes_charged", charged);
  tracer.count(op, "search.probes_failed", failed);
  tracer.count(op, "search.restarts", restarts);
  tracer.count(op, "search.abandoned", abandoned);
  tracer.count(op, "search.queries", static_cast<double>(results.size()));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t bench_stream(std::uint64_t seed, const char* tag,
                           std::uint64_t index) {
  Fnv1a h;
  h.add_str(tag);
  return sfs::rng::audited_stream_seed(seed, sfs::rng::mix64(h.value()),
                                       index);
}

std::vector<sfs::search::Query> neighbour_queries(const sfs::graph::Graph& g,
                                                 std::size_t count) {
  std::vector<sfs::search::Query> out;
  for (sfs::graph::VertexId v = 0; v < g.num_vertices() && out.size() < count;
       ++v) {
    for (const sfs::graph::VertexId u : g.adjacent(v)) {
      if (u != v) {
        out.push_back({v, u});
        break;
      }
    }
  }
  return out;
}

std::vector<std::size_t> sample_indices(std::uint64_t seed, std::size_t n,
                                        std::size_t k) {
  std::vector<std::size_t> out;
  if (k >= n) {
    for (std::size_t i = 0; i < n; ++i) out.push_back(i);
    return out;
  }
  sfs::rng::Rng rng(seed);
  for (const std::uint64_t i : rng.sample_without_replacement(n, k)) {
    out.push_back(static_cast<std::size_t>(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
