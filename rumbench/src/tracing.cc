#include "tracing.h"

#include <cstdio>

namespace rumbench {

using rum::Key;
using rum::PageId;
using rum::Status;
using rum::Value;

namespace {

/// Opens a span for the enclosing scope.
class Span {
 public:
  Span(SpanRecorder* rec, Layer layer, bool read_call = false)
      : rec_(rec), read_call_(read_call) {
    rec_->Open(layer);
  }
  ~Span() { rec_->Close(read_call_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
  bool read_call_;
};

/// Moves the guard for `page` out of `pins` (searching newest first).
template <typename Guard>
Guard TakePin(std::vector<std::pair<PageId, Guard>>* pins, PageId page) {
  for (size_t i = pins->size(); i > 0; --i) {
    if ((*pins)[i - 1].first == page) {
      Guard g = std::move((*pins)[i - 1].second);
      pins->erase(pins->begin() + static_cast<std::ptrdiff_t>(i - 1));
      return g;
    }
  }
  return Guard();
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kService:
      return "service";
    case Layer::kSharded:
      return "sharded";
    case Layer::kMethod:
      return "method";
    case Layer::kCache:
      return "cache";
    case Layer::kDevice:
      return "device";
  }
  return "?";
}

SpanRecorder::SpanRecorder(size_t max_records) : max_records_(max_records) {
  records_.reserve(max_records_);
  stack_.reserve(16);
}

LayerTally SpanRecorder::PhaseTally(Layer layer) const {
  LayerTally sum;
  for (size_t k = 1; k < kOpKindCount; ++k) {
    sum += tallies_[static_cast<size_t>(layer)][k];
  }
  return sum;
}

void SpanRecorder::Reset() {
  tallies_ = {};
  records_.clear();
  next_id_ = 0;
}

bool SpanRecorder::WriteRecords(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  std::fprintf(f, "id\tparent\trequest\tlayer\tstart_ns\tend_ns\n");
  for (const SpanRecord& r : records_) {
    std::fprintf(f, "%u\t%u\t%llu\t%s\t%llu\t%llu\n", r.id, r.parent,
                 static_cast<unsigned long long>(r.request), LayerName(r.layer),
                 static_cast<unsigned long long>(r.start_ns - t0),
                 static_cast<unsigned long long>(r.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

// ----------------------------------------------------------- TracedMethod

Status TracedMethod::Insert(Key key, Value value) {
  Span span(rec_, layer_);
  return inner_->Insert(key, value);
}

Status TracedMethod::Update(Key key, Value value) {
  Span span(rec_, layer_);
  return inner_->Update(key, value);
}

Status TracedMethod::Delete(Key key) {
  Span span(rec_, layer_);
  return inner_->Delete(key);
}

rum::Result<Value> TracedMethod::Get(Key key) {
  Span span(rec_, layer_);
  return inner_->Get(key);
}

Status TracedMethod::MultiGet(std::span<const Key> keys,
                              std::vector<std::optional<Value>>* out) {
  Span span(rec_, layer_);
  return inner_->MultiGet(keys, out);
}

Status TracedMethod::Scan(Key lo, Key hi, std::vector<rum::Entry>* out) {
  Span span(rec_, layer_);
  return inner_->Scan(lo, hi, out);
}

Status TracedMethod::BulkLoad(std::span<const rum::Entry> entries) {
  Span span(rec_, layer_);
  return inner_->BulkLoad(entries);
}

Status TracedMethod::Flush() {
  Span span(rec_, layer_);
  return inner_->Flush();
}

// ----------------------------------------------------------- TracedDevice

Status TracedDevice::Allocate(rum::DataClass cls, PageId* out) {
  Span span(rec_, layer_);
  return base_->Allocate(cls, out);
}

Status TracedDevice::Free(PageId page) {
  Span span(rec_, layer_);
  return base_->Free(page);
}

Status TracedDevice::Read(PageId page, std::vector<uint8_t>* out) {
  if (drop_next_read_) {
    drop_next_read_ = false;
    return base_->Read(page, out);
  }
  Span span(rec_, layer_, /*read_call=*/true);
  return base_->Read(page, out);
}

Status TracedDevice::Write(PageId page, const std::vector<uint8_t>& data) {
  Span span(rec_, layer_);
  return base_->Write(page, data);
}

Status TracedDevice::FlushAll() {
  Span span(rec_, layer_);
  return base_->FlushAll();
}

void TracedDevice::Crash() {
  read_pins_.clear();
  write_pins_.clear();
  base_->Crash();
}

Status TracedDevice::PinForRead(PageId page, rum::PageReadGuard* out) {
  rum::PageReadGuard base_guard;
  Status s;
  if (drop_next_read_) {
    drop_next_read_ = false;
    s = base_->PinForRead(page, &base_guard);
  } else {
    Span span(rec_, layer_, /*read_call=*/true);
    s = base_->PinForRead(page, &base_guard);
  }
  if (!s.ok()) return s;
  std::span<const uint8_t> bytes = base_guard.bytes();
  read_pins_.emplace_back(page, std::move(base_guard));
  *out = MakeReadGuard(this, page, bytes.data(), bytes.size());
  return Status::OK();
}

Status TracedDevice::PinForWrite(PageId page, rum::PageWriteGuard* out) {
  rum::PageWriteGuard base_guard;
  {
    Span span(rec_, layer_);
    Status s = base_->PinForWrite(page, &base_guard);
    if (!s.ok()) return s;
  }
  std::span<uint8_t> bytes = base_guard.bytes();
  write_pins_.emplace_back(page, std::move(base_guard));
  *out = MakeWriteGuard(this, page, bytes.data(), bytes.size());
  return Status::OK();
}

void TracedDevice::UnpinRead(PageId page) {
  rum::PageReadGuard g = TakePin(&read_pins_, page);
  Span span(rec_, layer_);
  g.Release();
}

Status TracedDevice::UnpinWrite(PageId page, bool dirty) {
  rum::PageWriteGuard g = TakePin(&write_pins_, page);
  Span span(rec_, layer_);
  if (dirty) g.MarkDirty();
  return g.Release();
}

}  // namespace rumbench
