// Reference computations the checks compare the program's outputs with.
// None of them calls into the library's quantum, QAOA, Max-Cut or JSON
// code, so a fault there cannot cancel out against its own check.

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Adjacency rows as bitmasks (the workloads' graphs have <= 15 nodes).
std::vector<std::uint64_t> adjacency_masks(const qgnn::Graph& g) {
  std::vector<std::uint64_t> adj(static_cast<std::size_t>(g.num_nodes()), 0);
  for (const qgnn::Edge& e : g.edges()) {
    adj[static_cast<std::size_t>(e.u)] |= std::uint64_t{1} << e.v;
    adj[static_cast<std::size_t>(e.v)] |= std::uint64_t{1} << e.u;
  }
  return adj;
}

}  // namespace

double closed_form_p1(const qgnn::Graph& g, double gamma, double beta) {
  // Per edge (u, v) with degrees du, dv and t common neighbours:
  //   <C_uv> = 1/2 + 1/4 sin(4b) sin(g) (cos^(du-1) g + cos^(dv-1) g)
  //          - 1/4 sin^2(2b) cos^(du+dv-2-2t)(g) (1 - cos^t(2g))
  const auto adj = adjacency_masks(g);
  const double s4b = std::sin(4.0 * beta);
  const double s2b = std::sin(2.0 * beta);
  const double sg = std::sin(gamma);
  const double cg = std::cos(gamma);
  const double c2g = std::cos(2.0 * gamma);
  double total = 0.0;
  for (const qgnn::Edge& e : g.edges()) {
    const std::uint64_t au = adj[static_cast<std::size_t>(e.u)];
    const std::uint64_t av = adj[static_cast<std::size_t>(e.v)];
    const int du = std::popcount(au);
    const int dv = std::popcount(av);
    const int t = std::popcount(au & av);
    total += 0.5 +
             0.25 * s4b * sg * (std::pow(cg, du - 1) + std::pow(cg, dv - 1)) -
             0.25 * s2b * s2b * std::pow(cg, du + dv - 2 - 2 * t) *
                 (1.0 - std::pow(c2g, t));
  }
  return total;
}

double exhaustive_maxcut(const qgnn::Graph& g) {
  const int n = g.num_nodes();
  if (n < 2) return 0.0;
  const auto adj = adjacency_masks(g);
  // Node n-1 stays on side 0 (a cut and its complement are equal); walk
  // the other nodes' 2^(n-1) assignments in Gray-code order, one flip per
  // step, updating the cut by the flipped node's edges.
  std::uint64_t side = 0;
  long cut = 0;
  long best = 0;
  const std::uint64_t steps = std::uint64_t{1} << (n - 1);
  for (std::uint64_t i = 1; i < steps; ++i) {
    const int k = std::countr_zero(i);
    const std::uint64_t row = adj[static_cast<std::size_t>(k)];
    const bool on_one = (side >> k) & 1U;
    const long same = std::popcount(on_one ? (row & side) : (row & ~side));
    const long degree = std::popcount(row);
    cut += 2 * same - degree;
    side ^= std::uint64_t{1} << k;
    best = std::max(best, cut);
  }
  return static_cast<double>(best);
}

double oracle_ar(const qgnn::Graph& g, double gamma, double beta,
                 double optimum) {
  return closed_form_p1(g, gamma, beta) / optimum;
}

std::string request_line(std::uint64_t id, const qgnn::Graph& g) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"nodes\":" + std::to_string(g.num_nodes()) +
                     ",\"edges\":[";
  bool first = true;
  for (const qgnn::Edge& e : g.edges()) {
    if (!first) line += ',';
    first = false;
    line += '[' + std::to_string(e.u) + ',' + std::to_string(e.v) + ']';
  }
  line += "]}";
  return line;
}

namespace {

/// Position just past `"key":` in `line`, or nullptr.
const char* after_key(const std::string& line, const char* key) {
  const std::string pattern = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pattern);
  return at == std::string::npos ? nullptr : line.c_str() + at + pattern.size();
}

bool read_bool(const char* p, bool& out) {
  if (p == nullptr) return false;
  if (std::strncmp(p, "true", 4) == 0) {
    out = true;
    return true;
  }
  if (std::strncmp(p, "false", 5) == 0) {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

Response parse_response(const std::string& line) {
  Response r;
  const char* id = after_key(line, "id");
  if (id == nullptr) return r;
  char* end = nullptr;
  const double id_value = std::strtod(id, &end);
  if (end == id || id_value < 0.0) return r;
  r.id = static_cast<std::uint64_t>(id_value);
  if (!read_bool(after_key(line, "ok"), r.ok)) return r;
  if (!r.ok) {
    r.parsed = true;
    return r;
  }
  if (!read_bool(after_key(line, "cached"), r.cached)) return r;
  const char* p = after_key(line, "values");
  if (p == nullptr || *p != '[') return r;
  ++p;
  while (*p != ']') {
    const double x = std::strtod(p, &end);
    if (end == p) return r;
    r.values.push_back(x);
    p = end;
    if (*p == ',') ++p;
  }
  if (const char* latency = after_key(line, "latency_us")) {
    const double x = std::strtod(latency, &end);
    if (end == latency) return r;
    r.latency_us = x;
  }
  r.parsed = true;
  return r;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace perfbench
