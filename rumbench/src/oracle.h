// The independent oracle: a plain ordered map replaying the generated
// stream, and the per-class digests both sides fold their answers into.
#ifndef RUMBENCH_ORACLE_H_
#define RUMBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/types.h"
#include "workload.h"

namespace rumbench {

/// Order-sensitive digests of every answer, one per answer class. Equal
/// digests over the same stream mean every answer matched.
struct Digests {
  uint64_t get = 0;
  uint64_t multiget = 0;
  uint64_t scan = 0;
  uint64_t scan_rows = 0;

  void FoldGet(rum::Key key, std::optional<rum::Value> v) {
    get = Fold(Fold(get, key), v ? *v : kAbsent);
  }
  void FoldMultiGet(rum::Key key, std::optional<rum::Value> v) {
    multiget = Fold(Fold(multiget, key), v ? *v : kAbsent);
  }
  void FoldScanRow(const rum::Entry& e) {
    scan = Fold(Fold(scan, e.key), e.value);
    ++scan_rows;
  }
  void FoldScanEnd(rum::Key lo) { scan = Fold(scan, lo); }

  friend bool operator==(const Digests&, const Digests&) = default;

 private:
  static constexpr uint64_t kAbsent = 0xA85E'17D0'0000'0001ULL;
  static uint64_t Fold(uint64_t h, uint64_t x) {
    h = (h ^ x) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
  }
};

/// A std::map holding what the access method should hold.
class Oracle {
 public:
  explicit Oracle(std::span<const rum::Entry> initial);

  /// Applies one op, folding any answer into `digests`.
  void Apply(const Op& op, std::span<const rum::Key> keys, Digests* digests);

  size_t size() const { return map_.size(); }

 private:
  std::optional<rum::Value> Find(rum::Key key) const;

  std::map<rum::Key, rum::Value> map_;
};

}  // namespace rumbench

#endif  // RUMBENCH_ORACLE_H_
