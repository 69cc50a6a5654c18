#pragma once

#include <cstdint>

namespace qgnn::serve {

class ServeHandle;

/// The graph part of a prediction-cache key: canonical_hash of the request
/// graph, computed at most once per request and carried with it (cache
/// probe, submit queue, batch slot, cache insert, verify score, prediction
/// tap).
///
/// Only ServeHandle can mint one, and it does so from the graph the key
/// travels with. A key therefore never comes from outside bytes (an NDJSON
/// line, the router-to-shard hop): a forged key would read or overwrite
/// another graph's cache entry.
class GraphKey {
 public:
  std::uint64_t value() const { return value_; }

  friend bool operator==(const GraphKey&, const GraphKey&) = default;

 private:
  friend class ServeHandle;
  explicit GraphKey(std::uint64_t value) : value_(value) {}

  std::uint64_t value_;
};

}  // namespace qgnn::serve
