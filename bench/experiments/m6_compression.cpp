// M6 — out-of-core substrate audit: CompressedGraph footprint and decode
// rate plus the snapshot write→mmap→replay path.
//
// Three stages:
//
//  1. ROUND-TRIP AUDIT — every generator family (Móri tree, merged Móri,
//     Barabási–Albert, configuration model, Cooper–Frieze, Erdős–Rényi,
//     Kleinberg) is compressed and decompressed; any deviation from the
//     original graph (edge list or adjacency) is a failure (exit 1). This
//     is the same contract tests/test_compressed checks, re-asserted here
//     at bench scale so the measured ratio below is the ratio of a
//     lossless encoding.
//  2. SNAPSHOT SMOKE — the measurement graph is written to a versioned
//     snapshot, mapped back read-only, and replayed row-by-row against
//     the in-memory original (exit 1 on any divergence).
//  3. MEASUREMENT — on the preferential-attachment workhorse of the E1
//     grid (merged Móri m=1, p=0.5; quick n=65536, full n=1048576): the
//     compressed footprint vs graph_memory_bytes, and sequential
//     full-graph decode throughput in million adjacency slots per second
//     through the per-worker AdjacencyDecodeBuffer. Full mode enforces
//     the substrate contract — ratio >= 4.0 (exit 1) — while quick mode
//     only reports: a small-n ratio is not the substrate's ratio.
//
// BENCH_JSON: one record, case "varint" (the row codec) —
//   {bench, case, n, edges, graph_bytes, compressed_bytes, ratio,
//    decode_mslots_per_s, bit_identical}
// committed as BENCH_m6.json (scripts/capture_baselines.sh, guarded by
// scripts/check_baselines.py).
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "gen/config_model.hpp"
#include "gen/cooper_frieze.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/kleinberg.hpp"
#include "gen/mori.hpp"
#include "graph/compressed.hpp"
#include "graph/snapshot.hpp"
#include "sim/experiment.hpp"
#include "sim/json.hpp"
#include "sim/report.hpp"
#include "sim/table.hpp"

namespace {

using sfs::graph::AdjacencyDecodeBuffer;
using sfs::graph::CompressedGraph;
using sfs::graph::Graph;
using sfs::graph::VertexId;
using sfs::rng::Rng;
using sfs::sim::ExperimentContext;

constexpr const char* kCodec = "varint";
constexpr double kRequiredRatio = 4.0;

bool graphs_equal(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges()) {
    return false;
  }
  for (sfs::graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    if (!(a.edge(e) == b.edge(e))) return false;
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto adj_a = a.adjacent(v);
    const auto adj_b = b.adjacent(v);
    if (!std::equal(adj_a.begin(), adj_a.end(), adj_b.begin(), adj_b.end())) {
      return false;
    }
  }
  return true;
}

// Decoded rows must equal the uncompressed adjacency slot for slot.
bool rows_match(const sfs::graph::CompressedView& view, const Graph& g,
                AdjacencyDecodeBuffer& buffer) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto expect = g.adjacent(v);
    const auto got = sfs::graph::decode_adjacent(view, v, buffer);
    if (!std::equal(expect.begin(), expect.end(), got.begin(), got.end())) {
      return false;
    }
  }
  return true;
}

// Stage 1: compress + decompress every generator family.
int audit_round_trips(ExperimentContext& ctx) {
  struct Family {
    const char* name;
    Graph graph;
  };
  const std::size_t n = 400;
  std::vector<Family> families;
  {
    Rng rng(ctx.stream_seed("audit mori"));
    families.push_back(
        {"mori_tree", sfs::gen::mori_tree(n, sfs::gen::MoriParams{0.5}, rng)});
  }
  {
    Rng rng(ctx.stream_seed("audit merged-mori"));
    families.push_back({"merged_mori",
                        sfs::gen::merged_mori_graph(
                            n, 3, sfs::gen::MoriParams{0.6}, rng)});
  }
  {
    Rng rng(ctx.stream_seed("audit ba"));
    families.push_back(
        {"barabasi_albert",
         sfs::gen::barabasi_albert(
             n, sfs::gen::BarabasiAlbertParams{3, true}, rng)});
  }
  {
    Rng rng(ctx.stream_seed("audit config"));
    families.push_back(
        {"config_model",
         sfs::gen::power_law_configuration_graph(
             n, sfs::gen::PowerLawSequenceParams{2.3, 1, 0},
             sfs::gen::ConfigModelOptions{false}, rng)});
  }
  {
    Rng rng(ctx.stream_seed("audit cf"));
    sfs::gen::CooperFriezeParams params;
    families.push_back(
        {"cooper_frieze", sfs::gen::cooper_frieze(n, params, rng).graph});
  }
  {
    Rng rng(ctx.stream_seed("audit er"));
    families.push_back(
        {"erdos_renyi", sfs::gen::erdos_renyi_gnm(n, 3 * n, rng)});
  }
  {
    Rng rng(ctx.stream_seed("audit kleinberg"));
    const sfs::gen::KleinbergGrid grid(20, {.r = 2.0, .q = 2}, rng);
    families.push_back({"kleinberg", grid.graph()});
  }

  int exit_code = 0;
  AdjacencyDecodeBuffer buffer;
  for (const auto& family : families) {
    const auto compressed = CompressedGraph::from_graph(family.graph);
    const bool ok = rows_match(compressed.view(), family.graph, buffer) &&
                    graphs_equal(family.graph, compressed.decompress());
    if (!ok) {
      ctx.console() << "AUDIT FAILURE: " << family.name
                    << " round trip diverged\n";
      exit_code = 1;
    }
  }
  return exit_code;
}

// Stage 2: snapshot write → mmap → replay on the measurement graph.
int snapshot_smoke(ExperimentContext& ctx, const Graph& g,
                   std::uint64_t seed) {
  const auto compressed = CompressedGraph::from_graph(g);
  const std::string path =
      (std::filesystem::temp_directory_path() / "sfs_m6_smoke.sfsnap")
          .string();
  sfs::graph::write_snapshot(path, compressed.view(),
                             {.generator = "merged_mori_m1", .seed = seed});
  const sfs::graph::MappedSnapshot snapshot(path);
  AdjacencyDecodeBuffer buffer;
  const bool ok = snapshot.meta().seed == seed &&
                  rows_match(snapshot.view(), g, buffer) &&
                  graphs_equal(g, sfs::graph::decompress(snapshot.view()));
  std::filesystem::remove(path);
  if (!ok) {
    ctx.console() << "AUDIT FAILURE: snapshot replay diverged\n";
    return 1;
  }
  return 0;
}

int run_m6(ExperimentContext& ctx) {
  const bool quick = ctx.options.quick;
  const std::size_t n = ctx.n_or(quick ? 65536 : (1u << 20));

  ctx.console() << "M6: compressed CSR + snapshot replay, merged "
                   "Mori m=1 p=0.5, n="
                << n << (quick ? " (quick)" : "") << ".\n\n";

  // Measurement graph: the E1 grid's generator at bench scale.
  const std::uint64_t graph_seed = ctx.stream_seed("measure graph");
  Rng rng(graph_seed);
  const Graph g =
      sfs::gen::merged_mori_graph(n, 1, sfs::gen::MoriParams{0.5}, rng);
  const double graph_bytes =
      static_cast<double>(sfs::graph::graph_memory_bytes(g));

  int exit_code = 0;
  if (audit_round_trips(ctx) != 0) exit_code = 1;
  if (snapshot_smoke(ctx, g, graph_seed) != 0) exit_code = 1;

  const auto compressed = CompressedGraph::from_graph(g);
  const double compressed_bytes =
      static_cast<double>(compressed.memory_bytes());
  const double ratio = graph_bytes / compressed_bytes;

  // Round trip of the measurement graph itself.
  AdjacencyDecodeBuffer buffer;
  const bool bit_identical = rows_match(compressed.view(), g, buffer) &&
                             graphs_equal(g, compressed.decompress());
  if (!bit_identical) {
    ctx.console() << "AUDIT FAILURE: measurement graph round trip "
                     "diverged\n";
    exit_code = 1;
  }

  // Sequential full-graph decode throughput: every row, every pass through
  // the one reused decode buffer (the WorkerContext contract).
  const std::size_t passes = quick ? 4 : 2;
  std::size_t slots = 0;
  sfs::sim::WallTimer timer;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      slots += sfs::graph::decode_adjacent(compressed.view(), v, buffer).size();
    }
  }
  const double seconds = std::max(timer.seconds(), 1e-9);
  const double mslots_per_s = static_cast<double>(slots) / seconds / 1e6;

  sfs::sim::Table t("M6: compressed footprint and decode throughput",
                    {"codec", "compressed MiB", "graph MiB", "ratio",
                     "decode Mslots/s", "bit identical"});
  t.row()
      .cell(kCodec)
      .num(compressed_bytes / (1024.0 * 1024.0), 2)
      .num(graph_bytes / (1024.0 * 1024.0), 2)
      .num(ratio, 2)
      .num(mslots_per_s, 1)
      .cell(bit_identical ? "yes" : "NO");

  sfs::sim::JsonObjectWriter json;
  json.str_field("bench", "m6_compression");
  json.str_field("case", kCodec);
  json.int_field("n", g.num_vertices());
  json.int_field("edges", g.num_edges());
  json.num_field("graph_bytes", graph_bytes);
  json.num_field("compressed_bytes", compressed_bytes);
  json.num_field("ratio", ratio);
  json.num_field("decode_mslots_per_s", mslots_per_s);
  json.bool_field("bit_identical", bit_identical);
  ctx.emitter->emit_object(json.str());
  t.print(ctx.console());

  // The substrate contract: the >= 4x reduction the large sweeps budget
  // for. Full mode only — a small-n ratio is not the substrate's ratio.
  if (!quick && ratio < kRequiredRatio) {
    ctx.console() << "\nCONTRACT FAILURE: ratio "
                  << sfs::sim::format_double(ratio, 2) << " < "
                  << sfs::sim::format_double(kRequiredRatio, 1) << "\n";
    exit_code = 1;
  }
  ctx.console() << "\nAudit: all generator families round-trip losslessly "
                   "and the snapshot replay matches the in-memory graph"
                << (exit_code == 0 ? " (verified)" : " — FAILURES above")
                << ".\n";
  return exit_code;
}

const sfs::sim::ExperimentRegistrar reg_m6({
    .name = "m6_compression",
    .title = "CompressedGraph: footprint, decode rate, snapshot replay",
    .claim = "The out-of-core substrate (compressed CSR + mmap snapshots) "
             "is lossless and >= 4x smaller than the pointer CSR",
    .caps = sfs::sim::kCapQuick | sfs::sim::kCapSingleSize |
            sfs::sim::kCapSeed,
    .params =
        {
            {"--n", "size", "1048576 (quick: 65536)",
             "measurement graph size (merged Mori m=1, p=0.5)"},
            {"--seed", "u64 seed", "derived from name",
             "base seed; audit/measurement streams derive from it"},
        },
    .run = run_m6,
});

}  // namespace
