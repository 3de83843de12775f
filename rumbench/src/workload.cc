#include "workload.h"

#include <cmath>
#include <utility>

namespace rumbench {
namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashName(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  return h;
}

// Why these three: each loads a different layer. btree-hot-reads takes the
// whole request path with every page cached, so front door, shard routing,
// the cache hit path and in-node search dominate. lsm-ingest-uncached keeps
// data about 8x the cache, so flush, compaction, Bloom filters and eviction
// with write-back dominate, and front door and sharding are absent.
// lsm-scan-compressed keeps several compressed runs cached, so the k-way
// merge, the cross-run index and page decoding dominate.
std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec w;
    w.name = "btree-hot-reads";
    w.method = "btree";
    w.initial_entries = 1'000'000;
    w.cache_pages = 16384;
    w.zipfian = true;
    w.mix = {.get = 865, .multiget = 10, .insert = 5, .update = 100,
             .del = 0, .scan = 20};
    w.multiget_keys = 32;
    w.scan_base_keys = 16;
    w.rounds_per_second = 900;
    w.options.service.enabled = true;
    w.options.sharded.shards = 4;
    specs.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "lsm-ingest-uncached";
    w.method = "lsm-leveled";
    w.initial_entries = 1'000'000;
    w.cache_pages = 512;
    w.mix = {.get = 210, .multiget = 30, .insert = 300, .update = 300,
             .del = 150, .scan = 10};
    w.multiget_keys = 8;
    w.scan_base_keys = 16;
    w.absent_per_mille = 500;
    w.prefill_writes = 65536;
    w.rounds_per_second = 440;
    specs.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "lsm-scan-compressed";
    w.method = "lsm-tiered";
    w.initial_entries = 500'000;
    w.cache_pages = 16384;
    w.mix = {.get = 300, .multiget = 30, .insert = 110, .update = 70,
             .del = 40, .scan = 450};
    w.multiget_keys = 64;
    w.scan_base_keys = 32;
    w.absent_per_mille = 100;
    w.prefill_writes = 40000;
    w.rounds_per_second = 60;
    w.options.lsm.compress_runs = true;
    w.options.lsm.cross_run_index = true;
    specs.push_back(w);
  }
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Specs()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string_view> WorkloadNames() {
  std::vector<std::string_view> names;
  for (const WorkloadSpec& w : Specs()) names.push_back(w.name);
  return names;
}

Generator::Generator(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec),
      seed_(Mix64(seed ^ HashName(spec.name))),
      state_(seed_) {
  if (spec_.zipfian) {
    const double n = static_cast<double>(spec_.initial_entries);
    const double theta = kZipfTheta;
    double zetan = 0;
    for (size_t i = 1; i <= spec_.initial_entries; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan);
    half_pow_theta_ = std::pow(0.5, theta);
  }
  const Mix& m = spec_.mix;
  const std::pair<OpClass, uint32_t> parts[] = {
      {OpClass::kGet, m.get},       {OpClass::kMultiGet, m.multiget},
      {OpClass::kInsert, m.insert}, {OpClass::kUpdate, m.update},
      {OpClass::kDelete, m.del},    {OpClass::kScan, m.scan}};
  for (const auto& [cls, count] : parts) classes_.insert(classes_.end(), count, cls);
}

uint64_t Generator::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  return Mix64(state_);
}

size_t Generator::NextIndex() {
  const uint64_t n = spec_.initial_entries;
  if (!spec_.zipfian) return Next() % n;
  const double u = static_cast<double>(Next() >> 11) * 0x1.0p-53;
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + half_pow_theta_) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(static_cast<double>(n) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
    if (rank >= n) rank = n - 1;
  }
  // Scramble ranks over the key space so hot keys spread across leaves and
  // shards instead of clustering at the low end.
  return Mix64(rank ^ seed_) % n;
}

rum::Key Generator::PointKey() {
  const size_t index = NextIndex();
  if (Next() % 1000 < spec_.absent_per_mille) {
    return index * kKeyStride + kAbsentOffset;
  }
  return index * kKeyStride;
}

std::vector<rum::Entry> Generator::InitialEntries() const {
  std::vector<rum::Entry> entries(spec_.initial_entries);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i] = {i * kKeyStride, Mix64(i ^ seed_)};
  }
  return entries;
}

void Generator::Prefill(std::vector<Op>* ops) {
  ops->clear();
  for (size_t i = 0; i < spec_.prefill_writes; ++i) {
    if (i % 2 == 0) {
      ops->push_back({OpClass::kInsert, InsertKey(), Next()});
    } else {
      ops->push_back({OpClass::kUpdate, BaseKey(), Next()});
    }
  }
}

void Generator::NextRound(std::vector<Op>* ops, std::vector<rum::Key>* keys) {
  ops->clear();
  keys->clear();
  for (size_t i = classes_.size(); i > 1; --i) {
    std::swap(classes_[i - 1], classes_[Next() % i]);
  }
  for (OpClass cls : classes_) {
    switch (cls) {
      case OpClass::kGet:
        ops->push_back({cls, PointKey(), 0});
        break;
      case OpClass::kMultiGet:
        ops->push_back({cls, keys->size(), spec_.multiget_keys});
        for (uint32_t k = 0; k < spec_.multiget_keys; ++k) {
          keys->push_back(PointKey());
        }
        break;
      case OpClass::kInsert:
        ops->push_back({cls, InsertKey(), Next()});
        break;
      case OpClass::kUpdate:
        ops->push_back({cls, BaseKey(), Next()});
        break;
      case OpClass::kDelete:
        ops->push_back({cls, BaseKey(), 0});
        break;
      case OpClass::kScan: {
        const rum::Key lo = BaseKey();
        ops->push_back({cls, lo, lo + spec_.scan_base_keys * kKeyStride - 1});
        break;
      }
    }
  }
}

}  // namespace rumbench
