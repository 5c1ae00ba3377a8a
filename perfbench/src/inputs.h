// Seeded inputs. Every workload derives its road network, traffic series
// and (for the open loop) arrival schedule from the one --seed argument;
// the program under test only ever sees the generated data.

#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <vector>

#include "src/data/dataset.h"

namespace perfbench {

/// \brief An independent 64-bit seed for input `stream` of run `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// \brief Generates a road network of `num_nodes` sensors
/// (data::GenerateRoadNetwork) and `days` of simulated 5-minute traffic
/// over it (data::SimulateTraffic), both seeded from `seed`.
dyhsl::data::TrafficDataset MakeDataset(uint64_t seed, int64_t num_nodes,
                                        int64_t days);

/// \brief Poisson arrivals at `rate` per second over [0, seconds), as
/// offsets in seconds from the start of the run.
std::vector<double> PoissonArrivals(uint64_t seed, double rate,
                                    double seconds);

/// \brief FNV-1a hash of the dataset's network (edges, coordinates,
/// districts) and raw series bytes: equal datasets hash equal.
uint64_t Fingerprint(const dyhsl::data::TrafficDataset& dataset);

/// \brief FNV-1a hash of a schedule's bytes.
uint64_t Fingerprint(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
