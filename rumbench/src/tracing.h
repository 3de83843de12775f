// Spans at layer boundaries, recorded from the benchmark's own wrappers.
//
// The traced run assembles the same stack as the untraced one, but puts a
// TracedMethod or TracedDevice at every boundary. Each wrapper call opens a
// span (layer, start, end, parent, request id). Spans nest because the
// stack runs on one thread, so a layer's self time is its span minus the
// spans of the calls it made into the layer below.
#ifndef RUMBENCH_TRACING_H_
#define RUMBENCH_TRACING_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/access_method.h"
#include "storage/device.h"

namespace rumbench {

enum class Layer : uint8_t { kService, kSharded, kMethod, kCache, kDevice };
inline constexpr size_t kLayerCount = 5;
const char* LayerName(Layer layer);

/// What the client was doing when a span opened.
enum class OpKind : uint8_t { kSetup, kGet, kMultiGet, kWrite, kScan, kFlush };
inline constexpr size_t kOpKindCount = 6;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

struct LayerTally {
  uint64_t calls = 0;
  /// Read-class device calls (Read, PinForRead): the calls a cache counts
  /// as a hit or a miss.
  uint64_t read_calls = 0;
  uint64_t self_ns = 0;

  LayerTally& operator+=(const LayerTally& o) {
    calls += o.calls;
    read_calls += o.read_calls;
    self_ns += o.self_ns;
    return *this;
  }
};

struct SpanRecord {
  uint32_t id;
  uint32_t parent;  ///< 0 for a span opened by the client itself.
  uint64_t request;
  uint64_t start_ns;
  uint64_t end_ns;
  Layer layer;
};

/// Collects spans in memory: every span is aggregated per (layer, op kind);
/// the first `max_records` are also kept whole and written out at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t max_records);

  /// Marks the start of a client request; spans opened until the next call
  /// belong to it.
  void BeginRequest(OpKind kind, uint64_t request) {
    kind_ = kind;
    request_ = request;
  }

  void Open(Layer layer) {
    stack_.push_back({layer, ++next_id_, NowNs(), 0});
  }
  void Close(bool read_call) {
    const uint64_t end = NowNs();
    Frame f = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end - f.start;
    LayerTally& t = tallies_[static_cast<size_t>(f.layer)][static_cast<size_t>(kind_)];
    ++t.calls;
    t.read_calls += read_call ? 1 : 0;
    t.self_ns += dur - f.child_ns;
    uint32_t parent = 0;
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
      parent = stack_.back().id;
    }
    if (records_.size() < max_records_) {
      records_.push_back({f.id, parent, request_, f.start, end, f.layer});
    }
  }

  const LayerTally& tally(Layer layer, OpKind kind) const {
    return tallies_[static_cast<size_t>(layer)][static_cast<size_t>(kind)];
  }
  /// Sum over every op kind but set-up.
  LayerTally PhaseTally(Layer layer) const;
  /// Forgets all tallies and records (the measured phase starts clean).
  void Reset();

  /// Writes the kept records as tab-separated lines; false on I/O error.
  bool WriteRecords(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    uint32_t id;
    uint64_t start;
    uint64_t child_ns;
  };

  std::vector<Frame> stack_;
  std::array<std::array<LayerTally, kOpKindCount>, kLayerCount> tallies_{};
  std::vector<SpanRecord> records_;
  size_t max_records_;
  uint32_t next_id_ = 0;
  OpKind kind_ = OpKind::kSetup;
  uint64_t request_ = 0;
};

/// An AccessMethod that forwards every call to `inner` inside a span.
class TracedMethod : public rum::AccessMethod {
 public:
  TracedMethod(std::unique_ptr<rum::AccessMethod> inner, Layer layer,
               SpanRecorder* rec)
      : inner_(std::move(inner)), layer_(layer), rec_(rec) {}

  std::string_view name() const override { return inner_->name(); }
  rum::Status Insert(rum::Key key, rum::Value value) override;
  rum::Status Update(rum::Key key, rum::Value value) override;
  rum::Status Delete(rum::Key key) override;
  rum::Result<rum::Value> Get(rum::Key key) override;
  rum::Status MultiGet(std::span<const rum::Key> keys,
                       std::vector<std::optional<rum::Value>>* out) override;
  rum::Status Scan(rum::Key lo, rum::Key hi,
                   std::vector<rum::Entry>* out) override;
  rum::Status BulkLoad(std::span<const rum::Entry> entries) override;
  rum::Status Flush() override;
  size_t size() const override { return inner_->size(); }
  rum::CounterSnapshot stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  std::unique_ptr<rum::AccessMethod> inner_;
  Layer layer_;
  SpanRecorder* rec_;
};

/// A Device that forwards every call to `base` inside a span. Pins are
/// forwarded the way FaultyDevice forwards them: the wrapper holds the base
/// pin and hands out its own guard, so the unpin also crosses the boundary.
class TracedDevice : public rum::Device {
 public:
  TracedDevice(rum::Device* base, Layer layer, SpanRecorder* rec)
      : base_(base), layer_(layer), rec_(rec) {}

  /// Self-test hook: the next read-class call is forwarded without a span,
  /// as a wrapper that loses a call would.
  void DropNextReadCall() { drop_next_read_ = true; }

  rum::Status Allocate(rum::DataClass cls, rum::PageId* out) override;
  rum::Status Free(rum::PageId page) override;
  rum::Status Read(rum::PageId page, std::vector<uint8_t>* out) override;
  rum::Status Write(rum::PageId page, const std::vector<uint8_t>& data) override;
  rum::Status FlushAll() override;
  void Crash() override;
  rum::Status PinForRead(rum::PageId page, rum::PageReadGuard* out) override;
  rum::Status PinForWrite(rum::PageId page, rum::PageWriteGuard* out) override;
  size_t block_size() const override { return base_->block_size(); }
  size_t live_pages() const override { return base_->live_pages(); }

 protected:
  void UnpinRead(rum::PageId page) override;
  rum::Status UnpinWrite(rum::PageId page, bool dirty) override;

 private:
  rum::Device* base_;
  Layer layer_;
  SpanRecorder* rec_;
  bool drop_next_read_ = false;
  // Base pins behind the guards this wrapper handed out. Few pins are open
  // at once, so a vector searched from the back beats a map.
  std::vector<std::pair<rum::PageId, rum::PageReadGuard>> read_pins_;
  std::vector<std::pair<rum::PageId, rum::PageWriteGuard>> write_pins_;
};

}  // namespace rumbench

#endif  // RUMBENCH_TRACING_H_
