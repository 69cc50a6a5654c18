#include "graph/refine.hpp"

#include <algorithm>
#include <cmath>

namespace qgnn {

namespace {

std::uint64_t quantize_weight(double w) {
  return static_cast<std::uint64_t>(std::llround(w * 1e9));
}

/// Branch-free compare-exchange: afterwards a <= b. The swap is a masked
/// xor, so there is no data-dependent branch to mispredict.
inline void compare_exchange(std::uint64_t& a, std::uint64_t& b) {
  const std::uint64_t swap =
      (a ^ b) & (0 - static_cast<std::uint64_t>(b < a));
  a ^= swap;
  b ^= swap;
}

/// Size-optimal sorting networks for 2..8 elements (the degrees of the
/// serving graphs); tests/test_canonical.cpp checks every 0/1 input.
using Pair = std::uint8_t[2];
constexpr Pair kNet2[] = {{0, 1}};
constexpr Pair kNet3[] = {{0, 2}, {0, 1}, {1, 2}};
constexpr Pair kNet4[] = {{0, 2}, {1, 3}, {0, 1}, {2, 3}, {1, 2}};
constexpr Pair kNet5[] = {{0, 3}, {1, 4}, {0, 2}, {1, 3}, {0, 1},
                          {2, 4}, {1, 2}, {3, 4}, {2, 3}};
constexpr Pair kNet6[] = {{0, 5}, {1, 3}, {2, 4}, {1, 2}, {3, 4}, {0, 3},
                          {2, 5}, {0, 1}, {2, 3}, {4, 5}, {1, 2}, {3, 4}};
constexpr Pair kNet7[] = {{0, 6}, {2, 3}, {4, 5}, {0, 2}, {1, 4}, {3, 6},
                          {0, 1}, {2, 5}, {3, 4}, {1, 2}, {4, 6}, {2, 3},
                          {4, 5}, {1, 2}, {3, 4}, {5, 6}};
constexpr Pair kNet8[] = {{0, 2}, {1, 3}, {4, 6}, {5, 7}, {0, 4}, {1, 5},
                          {2, 6}, {3, 7}, {0, 1}, {2, 3}, {4, 5}, {6, 7},
                          {2, 4}, {3, 5}, {1, 4}, {3, 6}, {1, 2}, {3, 4},
                          {5, 6}};

template <std::size_t N>
void run_network(std::uint64_t* a, const Pair (&net)[N]) {
  for (const Pair& p : net) compare_exchange(a[p[0]], a[p[1]]);
}

}  // namespace

void sort_small(std::uint64_t* a, int len) {
  switch (len) {
    case 2: return run_network(a, kNet2);
    case 3: return run_network(a, kNet3);
    case 4: return run_network(a, kNet4);
    case 5: return run_network(a, kNet5);
    case 6: return run_network(a, kNet6);
    case 7: return run_network(a, kNet7);
    case 8: return run_network(a, kNet8);
    default: break;
  }
  if (len > 16) {
    std::sort(a, a + len);
    return;
  }
  // Insertion network for 9..16: every (i, j) pair is visited whatever
  // the data. Below 2 the loop does nothing.
  for (int i = 1; i < len; ++i) {
    for (int j = i; j > 0; --j) compare_exchange(a[j - 1], a[j]);
  }
}

ColorRefiner::ColorRefiner(const Graph& g) : n_(g.num_nodes()) {
  const auto n = static_cast<std::size_t>(n_);
  offsets_.assign(n + 1, 0);
  int max_degree = 0;
  for (int v = 0; v < n_; ++v) {
    const int d = g.degree(v);
    offsets_[static_cast<std::size_t>(v) + 1] =
        offsets_[static_cast<std::size_t>(v)] + d;
    max_degree = std::max(max_degree, d);
  }
  neighbors_.resize(static_cast<std::size_t>(offsets_[n]));
  weights_.resize(neighbors_.size());
  // Each edge is quantized once and written into both endpoints' rows.
  // Row order does not matter: a round sorts each node's signatures.
  std::vector<int> fill(offsets_.begin(), offsets_.end() - 1);
  auto append = [&](int from, int to, std::uint64_t w) {
    const auto at =
        static_cast<std::size_t>(fill[static_cast<std::size_t>(from)]++);
    neighbors_[at] = to;
    weights_[at] = w;
  };
  for (const Edge& e : g.edges()) {
    const std::uint64_t w = quantize_weight(e.weight);
    append(e.u, e.v, w);
    append(e.v, e.u, w);
  }
  next_.resize(n);
  sig_.resize(static_cast<std::size_t>(max_degree));
}

std::vector<std::uint64_t> ColorRefiner::initial_colors() const {
  std::vector<std::uint64_t> c(static_cast<std::size_t>(n_));
  for (int v = 0; v < n_; ++v) {
    const auto i = static_cast<std::size_t>(v);
    c[i] = static_cast<std::uint64_t>(offsets_[i + 1] - offsets_[i]) + 1;
  }
  return c;
}

void ColorRefiner::round(std::vector<std::uint64_t>& c) {
  const std::uint64_t* cur = c.data();
  std::uint64_t* sig = sig_.data();
  for (int v = 0; v < n_; ++v) {
    const int lo = offsets_[static_cast<std::size_t>(v)];
    const int d = offsets_[static_cast<std::size_t>(v) + 1] - lo;
    const int* nbr = neighbors_.data() + lo;
    const std::uint64_t* w = weights_.data() + lo;
    for (int k = 0; k < d; ++k) sig[k] = hash_mix(cur[nbr[k]], w[k]);
    sort_small(sig, d);
    std::uint64_t h = cur[v];
    for (int k = 0; k < d; ++k) h = hash_mix(h, sig[k]);
    next_[static_cast<std::size_t>(v)] = h;
  }
  c.swap(next_);
}

std::size_t ColorRefiner::distinct_count(
    const std::vector<std::uint64_t>& c) {
  // Count the values with no equal value before them: n^2 / 2 compares,
  // no data-dependent branch and no copy.
  const std::uint64_t* a = c.data();
  std::size_t distinct = 0;
  for (int i = 0; i < n_; ++i) {
    bool repeat = false;
    for (int j = 0; j < i; ++j) repeat |= a[j] == a[i];
    distinct += repeat ? 0 : 1;
  }
  return distinct;
}

void ColorRefiner::refine_stable(std::vector<std::uint64_t>& c) {
  std::size_t classes = distinct_count(c);
  for (int round_index = 0; round_index < n_; ++round_index) {
    round(c);
    const std::size_t next_classes = distinct_count(c);
    if (next_classes == classes) break;
    classes = next_classes;
  }
}

std::uint64_t ColorRefiner::combine_sorted(
    std::vector<std::uint64_t>& colors) {
  sort_small(colors.data(), static_cast<int>(colors.size()));
  std::uint64_t h = static_cast<std::uint64_t>(colors.size()) *
                    0x100000001b3ULL;
  for (std::uint64_t c : colors) h = hash_mix(h, c);
  return h;
}

}  // namespace qgnn
