#include "graph/io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>

#include "graph/builder.hpp"

namespace sfs::graph {
namespace {

constexpr const char* kMagic = "sfsearch-graph v1";

/// Reads the next content line (skipping blank lines and '#' comments).
bool next_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto pos = line.find('#');
    if (pos != std::string::npos) line.erase(pos);
    // Trim trailing whitespace / CR.
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r'))
      line.pop_back();
    std::size_t start = 0;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t'))
      ++start;
    line.erase(0, start);
    if (!line.empty()) return true;
  }
  return false;
}

/// Parses `line` as exactly out.size() space- or tab-separated unsigned
/// decimal integers, each token read whole by std::from_chars: a sign,
/// trailing junk, an out-of-range value or a missing or extra token all
/// return false.
bool parse_fields(std::string_view line, std::span<std::uint64_t> out) {
  std::size_t k = 0;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t end =
        std::min(line.find_first_of(" \t", pos), line.size());
    if (end > pos) {
      if (k == out.size()) return false;
      const char* last = line.data() + end;
      const auto [ptr, ec] = std::from_chars(line.data() + pos, last, out[k]);
      if (ec != std::errc() || ptr != last) return false;
      ++k;
    }
    pos = end + 1;
  }
  return k == out.size();
}

}  // namespace

void write_edge_list(std::ostream& out, const Graph& g) {
  out << kMagic << '\n';
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) out << e.tail << ' ' << e.head << '\n';
}

Graph read_edge_list(std::istream& in) {
  std::string line;
  SFS_REQUIRE(next_line(in, line), "empty graph stream");
  SFS_REQUIRE(line == kMagic, "bad magic line: expected 'sfsearch-graph v1'");

  SFS_REQUIRE(next_line(in, line), "missing header line");
  std::array<std::uint64_t, 2> header{};
  SFS_REQUIRE(parse_fields(line, header),
              "malformed header line '" + line +
                  "': expected '<num_vertices> <num_edges>'");
  const auto [n, m] = header;
  // Checked before anything is sized. The edge log grows as lines are
  // read, never from the header's claim, so a huge m with a short body
  // fails as truncated instead of allocating.
  validate_edge_capacity(m);

  GraphBuilder b(n);
  for (std::uint64_t i = 0; i < m; ++i) {
    SFS_REQUIRE(next_line(in, line),
                "truncated edge list: header declares " + std::to_string(m) +
                    " edges, found " + std::to_string(i));
    std::array<std::uint64_t, 2> edge{};
    SFS_REQUIRE(parse_fields(line, edge),
                "malformed edge line " + std::to_string(i) + " '" + line +
                    "': expected '<tail> <head>'");
    SFS_REQUIRE(edge[0] < n && edge[1] < n,
                "edge " + std::to_string(i) + " '" + line +
                    "': endpoint out of range for " + std::to_string(n) +
                    " vertices");
    b.add_edge(static_cast<VertexId>(edge[0]), static_cast<VertexId>(edge[1]));
  }
  SFS_REQUIRE(!next_line(in, line),
              "content after the " + std::to_string(m) +
                  " edges the header declares: '" + line + "'");
  return b.build();
}

std::string to_string(const Graph& g) {
  std::ostringstream os;
  write_edge_list(os, g);
  return os.str();
}

Graph from_string(const std::string& text) {
  std::istringstream is(text);
  return read_edge_list(is);
}

// The three raw throws below are deliberate: a missing or unwritable file
// is an environmental I/O failure, not a caller precondition or library
// invariant, and std::runtime_error is this API's documented contract
// (SFS_REQUIRE/SFS_CHECK would misclassify it as invalid_argument or
// logic_error).
void save(const std::string& path, const Graph& g) {
  std::ofstream f(path);
  // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  write_edge_list(f, g);
  // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
  if (!f) throw std::runtime_error("write failed: " + path);
}

Graph load(const std::string& path) {
  std::ifstream f(path);
  // SFS_LINT_ALLOW(check-discipline): environmental I/O failure; runtime_error is the documented contract
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  return read_edge_list(f);
}

}  // namespace sfs::graph
