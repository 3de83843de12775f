// Workload definitions and the seeded input generator.
//
// Every input the program sees -- bulk-loaded entries, set-up writes and the
// measured operation stream -- comes from Generator, a pure function of
// (workload, seed). The oracle replays the same stream, so the generator
// never looks at the program's answers.
#ifndef RUMBENCH_WORKLOAD_H_
#define RUMBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/options.h"
#include "core/types.h"

namespace rumbench {

enum class OpClass : uint8_t { kGet, kMultiGet, kInsert, kUpdate, kDelete, kScan };

/// One client call. `a`/`b` by class: Get/Delete: a = key. Insert/Update:
/// a = key, b = value. Scan: a = lo, b = hi (inclusive). MultiGet: a =
/// offset into the round's key buffer, b = key count.
struct Op {
  OpClass cls;
  rum::Key a;
  uint64_t b;
};

/// Calls per round, by class. A round is shuffled, but its make-up is the
/// same in every round of a workload, whatever the seed.
struct Mix {
  uint32_t get = 0;
  uint32_t multiget = 0;
  uint32_t insert = 0;
  uint32_t update = 0;
  uint32_t del = 0;
  uint32_t scan = 0;

  uint32_t calls() const {
    return get + multiget + insert + update + del + scan;
  }
};

struct WorkloadSpec {
  std::string_view name;
  /// Factory name of the access method. With `options.service.enabled`
  /// the method is fronted by ScheduledMethod over a ShardedMethod of
  /// `options.sharded.shards` instances (the full request path).
  std::string_view method;
  /// Entries bulk-loaded at set-up; base keys are i * kKeyStride.
  size_t initial_entries = 0;
  size_t cache_pages = 0;
  /// Zipfian (scrambled, theta = kZipfTheta) choice of base-key index;
  /// otherwise uniform.
  bool zipfian = false;
  Mix mix;
  uint32_t multiget_keys = 1;
  /// Base keys a scan spans (the range also covers inserted keys between).
  uint32_t scan_base_keys = 16;
  /// Per-mille of point-lookup keys that are never written.
  uint32_t absent_per_mille = 0;
  /// Writes applied after the bulk load to reach the starting shape.
  size_t prefill_writes = 0;
  /// Rounds in a measured phase per requested second. Fixed per workload
  /// so that a (workload, seed, seconds) triple always does the same work
  /// and the byte counters repeat exactly.
  double rounds_per_second = 0;
  rum::Options options;
};

/// Base keys sit at multiples of the stride; inserts use offsets 1..3 and
/// absent lookups offset 5, which no operation ever writes.
inline constexpr rum::Key kKeyStride = 8;
inline constexpr rum::Key kAbsentOffset = 5;
inline constexpr double kZipfTheta = 0.99;

const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string_view> WorkloadNames();

/// Deterministic generator of one workload's inputs.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, uint64_t seed);

  /// The bulk-load input: strictly ascending keys.
  std::vector<rum::Entry> InitialEntries() const;

  /// The set-up writes (inserts and updates) that follow the bulk load.
  void Prefill(std::vector<Op>* ops);

  /// The next round of the measured stream; MultiGet keys go to `keys`.
  void NextRound(std::vector<Op>* ops, std::vector<rum::Key>* keys);

 private:
  uint64_t Next();
  size_t NextIndex();
  rum::Key PointKey();
  rum::Key InsertKey() { return NextIndex() * kKeyStride + 1 + Next() % 3; }
  rum::Key BaseKey() { return NextIndex() * kKeyStride; }

  const WorkloadSpec& spec_;
  uint64_t seed_;
  uint64_t state_;
  // Zipfian constants (Gray et al., "Quickly generating billion-record
  // synthetic databases"), computed once per generator.
  double zetan_ = 0;
  double eta_ = 0;
  double alpha_ = 0;
  double half_pow_theta_ = 0;
  std::vector<OpClass> classes_;
};

}  // namespace rumbench

#endif  // RUMBENCH_WORKLOAD_H_
