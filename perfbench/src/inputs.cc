#include "perfbench/src/inputs.h"

#include <algorithm>
#include <cmath>

#include "src/core/rng.h"

namespace perfbench {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

uint64_t Fnv(uint64_t hash, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash = (hash ^ p[i]) * 1099511628211ULL;
  }
  return hash;
}

template <typename T>
uint64_t FnvVector(uint64_t hash, const std::vector<T>& v) {
  return Fnv(hash, v.data(), v.size() * sizeof(T));
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  dyhsl::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.NextUint64();
}

dyhsl::data::TrafficDataset MakeDataset(uint64_t seed, int64_t num_nodes,
                                        int64_t days) {
  dyhsl::data::DatasetSpec spec;
  spec.name = "perfbench";
  spec.network.num_nodes = num_nodes;
  // PEMS-like sparsity (|E|/|V| ~ 1.5) and ~24-sensor districts.
  spec.network.target_edges = num_nodes * 3 / 2;
  spec.network.num_districts = std::max<int64_t>(3, num_nodes / 24);
  spec.network.seed = DeriveSeed(seed, 1);
  spec.sim.num_days = days;
  spec.sim.seed = DeriveSeed(seed, 2);
  return dyhsl::data::TrafficDataset::Generate(spec);
}

std::vector<double> PoissonArrivals(uint64_t seed, double rate,
                                    double seconds) {
  dyhsl::Rng rng(DeriveSeed(seed, 3));
  std::vector<double> offsets;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) return offsets;
    offsets.push_back(t);
  }
}

uint64_t Fingerprint(const dyhsl::data::TrafficDataset& dataset) {
  const dyhsl::data::SyntheticRoadNetwork& net = dataset.network();
  uint64_t h = kFnvOffset;
  for (const dyhsl::graph::WeightedEdge& e : net.graph.edges()) {
    h = Fnv(h, &e.src, sizeof(e.src));
    h = Fnv(h, &e.dst, sizeof(e.dst));
    h = Fnv(h, &e.weight, sizeof(e.weight));
  }
  h = FnvVector(h, net.x);
  h = FnvVector(h, net.y);
  h = FnvVector(h, net.district);
  const dyhsl::tensor::Tensor& flow = dataset.traffic().flow;
  return Fnv(h, flow.data(), static_cast<size_t>(flow.numel()) * sizeof(float));
}

uint64_t Fingerprint(const std::vector<double>& values) {
  return FnvVector(kFnvOffset, values);
}

}  // namespace perfbench
