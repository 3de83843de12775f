#include "oracle.h"

namespace rumbench {

Oracle::Oracle(std::span<const rum::Entry> initial) {
  for (const rum::Entry& e : initial) map_.emplace_hint(map_.end(), e.key, e.value);
}

std::optional<rum::Value> Oracle::Find(rum::Key key) const {
  auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

void Oracle::Apply(const Op& op, std::span<const rum::Key> keys,
                   Digests* digests) {
  switch (op.cls) {
    case OpClass::kGet:
      digests->FoldGet(op.a, Find(op.a));
      break;
    case OpClass::kMultiGet:
      for (rum::Key key : keys.subspan(op.a, op.b)) {
        digests->FoldMultiGet(key, Find(key));
      }
      break;
    case OpClass::kInsert:
    case OpClass::kUpdate:
      map_[op.a] = op.b;
      break;
    case OpClass::kDelete:
      map_.erase(op.a);
      break;
    case OpClass::kScan:
      for (auto it = map_.lower_bound(op.a); it != map_.end() && it->first <= op.b;
           ++it) {
        digests->FoldScanRow({it->first, it->second});
      }
      digests->FoldScanEnd(op.a);
      break;
  }
}

}  // namespace rumbench
