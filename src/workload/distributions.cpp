#include "workload/distributions.h"

#include <cassert>
#include <cmath>

namespace skiptrie {

const char* key_dist_name(KeyDist d) {
  switch (d) {
    case KeyDist::kUniform: return "uniform";
    case KeyDist::kZipf: return "zipf";
    case KeyDist::kClustered: return "clustered";
    case KeyDist::kSequential: return "sequential";
  }
  return "?";
}

KeyGenerator::KeyGenerator(KeyDist dist, uint64_t space, uint64_t seed,
                           double theta, uint32_t clusters,
                           uint64_t cluster_span, uint64_t cluster_seed)
    : dist_(dist),
      space_(space),
      rng_(seed),
      theta_(theta),
      cluster_span_(cluster_span < space ? cluster_span : space) {
  assert(space_ > 0);
  if (cluster_span_ == 0) cluster_span_ = 1;
  if (dist_ == KeyDist::kZipf) {
    // Gray et al. ("Quickly generating billion-record synthetic databases")
    // incremental zipf over a capped rank universe; ranks are then scattered
    // over the key space with a mix to avoid clustering at small keys.
    zipf_n_ = space_ < (1ull << 20) ? space_ : (1ull << 20);
    zetan_ = 0.0;
    for (uint64_t i = 1; i <= zipf_n_; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    alpha_ = 1.0 / (1.0 - theta_);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(zipf_n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }
  if (dist_ == KeyDist::kClustered) {
    Xoshiro256 center_rng(cluster_seed != 0 ? cluster_seed : seed);
    centers_.reserve(clusters);
    for (uint32_t i = 0; i < clusters; ++i) {
      centers_.push_back(center_rng.next_below(space_));
    }
  }
}

uint64_t KeyGenerator::next_zipf() {
  const double u = rng_.next_double();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 1;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 2;
  } else {
    rank = 1 + static_cast<uint64_t>(
                   static_cast<double>(zipf_n_) *
                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank > zipf_n_) rank = zipf_n_;
  }
  // Scatter ranks over the key space deterministically.
  return mix64(rank) % space_;
}

uint64_t KeyGenerator::next() {
  switch (dist_) {
    case KeyDist::kUniform:
      return rng_.next_below(space_);
    case KeyDist::kZipf:
      return next_zipf();
    case KeyDist::kClustered: {
      // c < space_ and off < cluster_span_ <= space_, so the sum wraps at
      // most once; branch on the wrap instead of computing c + off, which
      // can overflow uint64 for centers near UINT64_MAX.
      const uint64_t c = centers_[rng_.next_below(centers_.size())];
      const uint64_t off = rng_.next_below(cluster_span_);
      return off >= space_ - c ? off - (space_ - c) : c + off;
    }
    case KeyDist::kSequential: {
      const uint64_t k = seq_++;
      return k % space_;
    }
  }
  return 0;
}

}  // namespace skiptrie
