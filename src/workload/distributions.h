// Key distributions for workloads and benchmarks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace skiptrie {

enum class KeyDist : uint8_t {
  kUniform,     // uniform over [0, space)
  kZipf,        // skewed: rank-frequency ~ 1/rank^theta over shuffled ranks
  kClustered,   // dense runs around random cluster centers
  kSequential,  // monotonically increasing (stride 1, wrap-around)
};

const char* key_dist_name(KeyDist d);

class KeyGenerator {
 public:
  // space: keys are drawn from [0, space).  theta: zipf skew (0.99 typical).
  // clusters/cluster_span shape the clustered distribution.  cluster_seed
  // selects the cluster centers independently of the per-stream seed: two
  // generators with the same cluster_seed draw from the same clusters even
  // when their streams differ (a prefill pass and the timed threads must
  // agree on where the clusters are, or clustered read workloads measure
  // misses).  0 means "derive from seed" (each stream gets its own centers).
  KeyGenerator(KeyDist dist, uint64_t space, uint64_t seed,
               double theta = 0.99, uint32_t clusters = 64,
               uint64_t cluster_span = 1024, uint64_t cluster_seed = 0);

  uint64_t next();

  uint64_t space() const { return space_; }

 private:
  uint64_t next_zipf();

  KeyDist dist_;
  uint64_t space_;
  Xoshiro256 rng_;
  // zipf state (Gray et al. quick approximation)
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  uint64_t zipf_n_;
  // clustered state
  std::vector<uint64_t> centers_;
  uint64_t cluster_span_;
  // sequential state
  uint64_t seq_ = 0;
};

}  // namespace skiptrie
