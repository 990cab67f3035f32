#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

const WorkloadSpec kWorkloads[] = {
    {WorkloadId::kPredUniform, "pred_uniform", 1},
    {WorkloadId::kHotZipf, "hot_zipf", 3},
    {WorkloadId::kChurn, "churn", ChurnLayout::kClients},
};

uint64_t splitmix64(uint64_t& s) {
  uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// xoshiro256**, seeded through splitmix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& w : s_) w = splitmix64(seed);
  }
  uint64_t next() {
    const uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  uint64_t below(uint64_t bound) {  // bound <= 2^32: bias < 2^-32
    return ((next() >> 32) * bound) >> 32;
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// Stream seeds: one independent generator per (seed, purpose, client).
uint64_t sub_seed(uint64_t seed, uint64_t purpose, uint64_t client) {
  uint64_t s = seed ^ (purpose * 0x9e3779b97f4a7c15ull) ^
               (client * 0xc2b2ae3d27d4eb4full);
  return splitmix64(s);
}

// Zipf ranks in [0, n) with P(rank r) ~ 1/(r+1)^theta (Gray et al.,
// "Quickly generating billion-record synthetic databases", SIGMOD 1994).
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan);
  }
  uint64_t sample(Rng& r) const {
    const double u = r.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto v = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(v, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_, zetan_, alpha_, eta_;
};

// Seeded bijection on [0, 2^bits): scatters zipf ranks over the candidates
// so the hot set is not a contiguous key range.
uint64_t scatter(uint64_t r, uint32_t bits, uint64_t salt) {
  const uint64_t mask = (1ull << bits) - 1;
  r = (r * 0x9e3779b97f4a7c15ull) & mask;
  r ^= r >> (bits / 2);
  r = (r * 0xbf58476d1ce4e5b9ull) & mask;
  r ^= r >> (bits / 3);
  return (r ^ salt) & mask;
}

// `k` distinct values of [0, n), in random order.
std::vector<uint64_t> sample_distinct(uint64_t n, size_t k, Rng& r) {
  std::vector<uint64_t> pool(n);
  for (uint64_t i = 0; i < n; ++i) pool[i] = i;
  for (size_t i = 0; i < k; ++i) {
    std::swap(pool[i], pool[i + r.below(n - i)]);
  }
  pool.resize(k);
  return pool;
}

void shuffle(std::vector<uint64_t>& v, Rng& r) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[r.below(i)]);
}

constexpr uint64_t kUniverse = 1ull << kUniverseBits;

// pred_uniform: 2^17 distinct keys uniform over the universe; 1 client of
// uniform predecessor queries.
Inputs make_pred_uniform(uint64_t seed) {
  constexpr size_t kKeys = size_t{1} << 17;
  Inputs in;
  Rng r(sub_seed(seed, 1, 0));
  std::vector<uint64_t> keys;
  while (keys.size() < kKeys) {
    while (keys.size() < kKeys) keys.push_back(r.below(kUniverse));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  shuffle(keys, r);
  in.loaded = std::move(keys);
  Rng q(sub_seed(seed, 2, 0));
  in.streams.assign(1, std::vector<uint64_t>(kStreamLen));
  for (uint64_t& w : in.streams[0]) w = encode_op(kPred, q.below(kUniverse));
  Rng s(sub_seed(seed, 3, 0));
  in.side.assign(1, std::vector<uint64_t>(kSideLen));
  for (uint64_t& k : in.side[0]) k = s.below(kUniverse);
  return in;
}

// hot_zipf: 2^20 candidate keys i << 12, a random half loaded; each client
// issues 50% contains / 50% predecessor on zipf(0.99)-drawn candidates.
Inputs make_hot_zipf(uint64_t seed, uint32_t clients) {
  constexpr uint32_t kBits = 20;
  constexpr uint32_t kShift = kUniverseBits - kBits;
  Inputs in;
  Rng r(sub_seed(seed, 1, 0));
  in.loaded = sample_distinct(1ull << kBits, size_t{1} << (kBits - 1), r);
  for (uint64_t& k : in.loaded) k <<= kShift;
  const uint64_t salt = r.next();
  const Zipf zipf(1ull << kBits, 0.99);
  auto draw = [&](Rng& g) {
    return scatter(zipf.sample(g), kBits, salt) << kShift;
  };
  in.streams.assign(clients, std::vector<uint64_t>(kStreamLen));
  in.side.assign(clients, std::vector<uint64_t>(kSideLen));
  for (uint32_t c = 0; c < clients; ++c) {
    Rng q(sub_seed(seed, 2, c));
    for (uint64_t& w : in.streams[c]) {
      const OpKind k = (q.next() >> 63) != 0 ? kPred : kContains;
      w = encode_op(k, draw(q));
    }
    Rng s(sub_seed(seed, 3, c));
    for (uint64_t& k : in.side[c]) k = draw(s);
  }
  return in;
}

// churn: every anchor plus a random share of the stripes, 2^18 keys in all;
// each client issues 40% insert / 40% erase / 10% contains on its own
// stripe and 10% predecessor uniform over the universe.
Inputs make_churn(uint64_t seed) {
  using L = ChurnLayout;
  constexpr size_t kKeys = size_t{1} << 18;
  Inputs in;
  Rng r(sub_seed(seed, 1, 0));
  const uint64_t stripe_keys = L::kBlocks * L::kOwnPerBlock * L::kClients;
  std::vector<uint64_t> picks = sample_distinct(
      stripe_keys, kKeys - static_cast<size_t>(L::kBlocks), r);
  for (uint64_t b = 0; b < L::kBlocks; ++b) in.loaded.push_back(b * 64);
  for (uint64_t p : picks) {
    // p enumerates every stripe key once: client p % 3, index p / 3.
    in.loaded.push_back(L::own_candidate(static_cast<uint32_t>(p % L::kClients),
                                         p / L::kClients));
  }
  shuffle(in.loaded, r);
  for (uint64_t& k : in.loaded) k = L::key_of(k);
  in.streams.assign(L::kClients, std::vector<uint64_t>(kStreamLen));
  in.side.assign(L::kClients, std::vector<uint64_t>(kSideLen));
  const uint64_t own_keys = L::kBlocks * L::kOwnPerBlock;
  for (uint32_t c = 0; c < L::kClients; ++c) {
    Rng q(sub_seed(seed, 2, c));
    for (uint64_t& w : in.streams[c]) {
      const uint64_t pick = q.below(100);
      if (pick >= 80 && pick < 90) {
        w = encode_op(kPred, q.below(kUniverse));
        continue;
      }
      const OpKind k = pick < 40 ? kInsert : pick < 80 ? kErase : kContains;
      w = encode_op(k, L::key_of(L::own_candidate(c, q.below(own_keys))));
    }
    Rng s(sub_seed(seed, 3, c));
    for (uint64_t& k : in.side[c]) k = s.below(kUniverse);
  }
  return in;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& w, uint64_t seed) {
  switch (w.id) {
    case WorkloadId::kPredUniform:
      return make_pred_uniform(seed);
    case WorkloadId::kHotZipf:
      return make_hot_zipf(seed, w.clients);
    case WorkloadId::kChurn:
      return make_churn(seed);
  }
  return {};
}

ReadOracle::ReadOracle(std::vector<uint64_t> keys) : sorted_(std::move(keys)) {
  std::sort(sorted_.begin(), sorted_.end());
}

uint64_t ReadOracle::predecessor(uint64_t x) const {
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return it == sorted_.begin() ? kNoKey : *(it - 1);
}

std::vector<uint64_t> ReadOracle::answers(
    const std::vector<uint64_t>& ops) const {
  std::vector<uint32_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&ops](uint32_t a, uint32_t b) {
    return op_key(ops[a]) < op_key(ops[b]);
  });
  std::vector<uint64_t> out(ops.size());
  size_t le = 0;  // keys <= the current query
  for (const uint32_t i : order) {
    const uint64_t x = op_key(ops[i]);
    while (le < sorted_.size() && sorted_[le] <= x) ++le;
    const uint64_t pred = le == 0 ? kNoKey : sorted_[le - 1];
    out[i] = op_kind(ops[i]) == kPred ? pred : uint64_t{pred == x};
  }
  return out;
}

uint64_t ChurnLayout::own_mask(uint32_t client) {
  uint64_t m = 0;
  for (uint32_t b = 1; b < 64; ++b) {
    if (owner(b) == client) m |= 1ull << b;
  }
  return m;
}

ChurnModel::ChurnModel(uint32_t client, const std::vector<uint64_t>& loaded)
    : client_(client),
      mask_(ChurnLayout::own_mask(client)),
      bits_(ChurnLayout::kBlocks, 0) {
  for (uint64_t k : loaded) {
    const uint64_t i = k >> ChurnLayout::kShift;
    if (!ChurnLayout::is_anchor(i) && ChurnLayout::owner(i) == client_) {
      bits_[i >> 6] |= 1ull << (i & 63);
    }
  }
}

bool ChurnModel::check_insert(uint64_t key, bool inserted) {
  const uint64_t i = key >> ChurnLayout::kShift;
  const bool ok = inserted == !present(i);
  bits_[i >> 6] |= 1ull << (i & 63);
  return ok;
}

bool ChurnModel::check_erase(uint64_t key, bool erased) {
  const uint64_t i = key >> ChurnLayout::kShift;
  const bool ok = erased == present(i);
  bits_[i >> 6] &= ~(1ull << (i & 63));
  return ok;
}

bool ChurnModel::check_contains(uint64_t key, bool found) const {
  return found == present(key >> ChurnLayout::kShift);
}

bool ChurnModel::check_pred(uint64_t x, uint64_t answer) const {
  constexpr uint64_t kLow = (1ull << ChurnLayout::kShift) - 1;
  const uint64_t ix = x >> ChurnLayout::kShift;
  const uint64_t anchor = ix & ~63ull;
  // Candidate 0 is an anchor, so every x has a present key <= x.
  if (answer == kNoKey || answer > x || (answer & kLow) != 0) return false;
  const uint64_t ia = answer >> ChurnLayout::kShift;
  if (ia < anchor) return false;
  const uint64_t word = bits_[ix >> 6];
  if (!ChurnLayout::is_anchor(ia) && ChurnLayout::owner(ia) == client_ &&
      ((word >> (ia & 63)) & 1) == 0) {
    return false;  // answered an own key that is absent
  }
  // No own key in (answer, x] may be present.
  auto upto = [](uint64_t bit) {  // bits 0..bit
    return bit == 63 ? ~0ull : (1ull << (bit + 1)) - 1;
  };
  return (word & mask_ & upto(ix & 63) & ~upto(ia & 63)) == 0;
}

void ChurnModel::append_present(std::vector<uint64_t>* out) const {
  for (uint64_t b = 0; b < bits_.size(); ++b) {
    for (uint64_t w = bits_[b]; w != 0; w &= w - 1) {
      out->push_back(ChurnLayout::key_of(b * 64 + __builtin_ctzll(w)));
    }
  }
}

}  // namespace perfbench
