// rumbench: the end-to-end benchmark program.
//
//   rumbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans-out <file>] [--inject <check>]
//
// Builds one workload's stack through the public interfaces, loads it,
// runs a fixed number of rounds of generated operations from one client
// thread, checks every answer against an ordered-map replay, cross-checks
// the independently counted totals, and prints one JSON line. With
// --trace 0 the line holds the end-to-end metrics of unwrapped runs; with
// --trace 1 it holds the per-layer metrics of a wrapped run, compared with
// one unwrapped run of the same stream. --inject breaks one check on purpose (see selftest.py).
// Exit status: 0 when every check passed, 1 when one failed, 2 on misuse.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/access_method.h"
#include "core/counters.h"
#include "methods/btree/btree.h"
#include "methods/factory.h"
#include "methods/lsm/lsm_tree.h"
#include "methods/sharded/sharded_method.h"
#include "oracle.h"
#include "service/scheduled_method.h"
#include "storage/block_device.h"
#include "storage/caching_device.h"
#include "tracing.h"
#include "workload.h"

namespace rumbench {
namespace {

// Taken during static initialisation, before main: set-up time is measured
// from the start of the process.
const uint64_t g_process_start_ns = NowNs();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_out;
  std::string inject;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--inject") {
      args->inject = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds >= 1 && args->seconds <= 600;
}

// ------------------------------------------------------------------ checks

/// Records check outcomes; a failed check fails the run.
class Checks {
 public:
  explicit Checks(std::string inject) : inject_(std::move(inject)) {}

  /// True when the self-test asked to break check `name`.
  bool Injected(const char* name) const { return inject_ == name; }

  void Expect(bool ok, const char* name, const std::string& detail) {
    if (ok) return;
    ok_ = false;
    std::fprintf(stderr, "check failed: %s: %s\n", name, detail.c_str());
  }
  void ExpectEq(uint64_t got, uint64_t want, const char* name,
                const std::string& what) {
    Expect(got == want, name,
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
  }

  bool ok() const { return ok_; }

 private:
  std::string inject_;
  bool ok_ = true;
};

// ------------------------------------------------------------------- stack

/// One workload's storage stack and method, owned in teardown order (the
/// method dies first, the block device last).
struct Stack {
  rum::RumCounters device_counters;
  std::unique_ptr<rum::BlockDevice> block;
  std::unique_ptr<TracedDevice> traced_block;
  std::unique_ptr<rum::CachingDevice> cache;
  std::unique_ptr<TracedDevice> traced_cache;
  std::unique_ptr<rum::AccessMethod> top;
  /// The device the method stores on: the cache, or its wrapper.
  rum::Device* device = nullptr;
  rum::ScheduledMethod* scheduled = nullptr;
  rum::LsmTree* lsm = nullptr;
  std::vector<rum::BTree*> btrees;
};

/// Builds the stack. Untraced, it is what a user would build: the factory
/// over a cache over a block device. Traced (`rec` set), the same stack is
/// assembled by hand with a wrapper at every boundary.
std::unique_ptr<Stack> BuildStack(const WorkloadSpec& spec, SpanRecorder* rec) {
  auto st = std::make_unique<Stack>();
  st->block = std::make_unique<rum::BlockDevice>(spec.options.block_size,
                                                 &st->device_counters);
  rum::Device* below_cache = st->block.get();
  if (rec != nullptr) {
    st->traced_block =
        std::make_unique<TracedDevice>(below_cache, Layer::kDevice, rec);
    below_cache = st->traced_block.get();
  }
  st->cache = std::make_unique<rum::CachingDevice>(below_cache, spec.cache_pages);
  st->device = st->cache.get();
  if (rec != nullptr) {
    st->traced_cache =
        std::make_unique<TracedDevice>(st->device, Layer::kCache, rec);
    st->device = st->traced_cache.get();
  }
  const std::string method(spec.method);
  const bool front_door = spec.options.service.enabled;
  if (rec == nullptr) {
    st->top = rum::MakeAccessMethod(front_door ? "sharded-" + method : method,
                                    spec.options, st->device);
    if (st->top == nullptr) return nullptr;
    st->scheduled = dynamic_cast<rum::ScheduledMethod*>(st->top.get());
    st->lsm = dynamic_cast<rum::LsmTree*>(st->top.get());
    return st;
  }
  rum::Options inner = spec.options;
  inner.service.enabled = false;
  if (!front_door) {
    auto m = rum::MakeAccessMethod(method, inner, st->device);
    if (m == nullptr) return nullptr;
    st->lsm = dynamic_cast<rum::LsmTree*>(m.get());
    st->top = std::make_unique<TracedMethod>(std::move(m), Layer::kMethod, rec);
    return st;
  }
  std::vector<std::unique_ptr<rum::AccessMethod>> shards;
  for (size_t i = 0; i < spec.options.sharded.shards; ++i) {
    auto m = rum::MakeAccessMethod(method, inner, st->device);
    if (m == nullptr) return nullptr;
    if (auto* bt = dynamic_cast<rum::BTree*>(m.get())) st->btrees.push_back(bt);
    shards.push_back(
        std::make_unique<TracedMethod>(std::move(m), Layer::kMethod, rec));
  }
  auto sharded = std::make_unique<TracedMethod>(
      std::make_unique<rum::ShardedMethod>("sharded-" + method, std::move(shards)),
      Layer::kSharded, rec);
  auto scheduled =
      std::make_unique<rum::ScheduledMethod>(std::move(sharded), spec.options);
  st->scheduled = scheduled.get();
  st->top = std::make_unique<TracedMethod>(std::move(scheduled), Layer::kService,
                                           rec);
  return st;
}

// ---------------------------------------------------------------- counters

/// Every counter the stack exposes, as cumulative values. The difference
/// of two captures is a phase's traffic; space and shape are end levels.
struct Totals {
  rum::ThreadIoTally io;
  rum::CounterSnapshot method;
  rum::CounterSnapshot cache;
  rum::CounterSnapshot device;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t write_backs = 0;
  uint64_t live_pages = 0;
  uint64_t size = 0;
  uint64_t lsm_flushes = 0;
  uint64_t lsm_compactions = 0;
  uint64_t lsm_compaction_records = 0;
  uint64_t bloom_negatives = 0;
  uint64_t bloom_false_positives = 0;
  uint64_t lsm_runs = 0;
  uint64_t lsm_levels = 0;
};

Totals Capture(const Stack& st) {
  Totals t;
  t.io = rum::ThisThreadIo();
  t.method = st.top->stats();
  t.cache = st.cache->level_stats();
  t.device = st.device_counters.snapshot();
  t.hits = st.cache->hits();
  t.misses = st.cache->misses();
  t.evictions = st.cache->evictions();
  t.write_backs = st.cache->write_backs();
  t.live_pages = st.block->live_pages();
  t.size = st.top->size();
  if (st.lsm != nullptr) {
    const rum::FilterStats& fs = st.lsm->filter_stats();
    t.lsm_flushes = st.lsm->flushes();
    t.lsm_compactions = st.lsm->compactions();
    t.lsm_compaction_records = st.lsm->compaction_input_records();
    t.bloom_negatives = fs.negatives.load();
    t.bloom_false_positives = fs.false_positives.load();
    t.lsm_runs = st.lsm->total_runs();
    t.lsm_levels = st.lsm->level_count();
  }
  return t;
}

/// Traffic between two captures; levels are taken from `after`.
Totals Delta(const Totals& after, const Totals& before) {
  Totals d = after;
  d.io.bytes_read -= before.io.bytes_read;
  d.io.bytes_written -= before.io.bytes_written;
  d.method = after.method - before.method;
  d.cache = after.cache - before.cache;
  d.device = after.device - before.device;
  d.hits -= before.hits;
  d.misses -= before.misses;
  d.evictions -= before.evictions;
  d.write_backs -= before.write_backs;
  d.lsm_flushes -= before.lsm_flushes;
  d.lsm_compactions -= before.lsm_compactions;
  d.lsm_compaction_records -= before.lsm_compaction_records;
  d.bloom_negatives -= before.bloom_negatives;
  d.bloom_false_positives -= before.bloom_false_positives;
  return d;
}

/// The totals as named fields, for the exact comparison between runs.
std::vector<std::pair<std::string, uint64_t>> Fields(const Totals& t) {
  std::vector<std::pair<std::string, uint64_t>> f = {
      {"thread.bytes_read", t.io.bytes_read},
      {"thread.bytes_written", t.io.bytes_written},
      {"cache.hits", t.hits},
      {"cache.misses", t.misses},
      {"cache.evictions", t.evictions},
      {"cache.write_backs", t.write_backs},
      {"device.live_pages", t.live_pages},
      {"method.size", t.size},
      {"lsm.flushes", t.lsm_flushes},
      {"lsm.compactions", t.lsm_compactions},
      {"lsm.compaction_records", t.lsm_compaction_records},
      {"lsm.bloom_negatives", t.bloom_negatives},
      {"lsm.bloom_false_positives", t.bloom_false_positives},
      {"lsm.runs", t.lsm_runs},
      {"lsm.levels", t.lsm_levels}};
  auto add = [&f](const std::string& layer, const rum::CounterSnapshot& s) {
    f.insert(f.end(), {{layer + ".bytes_read_base", s.bytes_read_base},
                       {layer + ".bytes_read_aux", s.bytes_read_aux},
                       {layer + ".bytes_written_base", s.bytes_written_base},
                       {layer + ".bytes_written_aux", s.bytes_written_aux},
                       {layer + ".blocks_read", s.blocks_read},
                       {layer + ".blocks_written", s.blocks_written},
                       {layer + ".space_base", s.space_base},
                       {layer + ".space_aux", s.space_aux},
                       {layer + ".batched_page_hits", s.batched_page_hits}});
  };
  add("method", t.method);
  add("cache", t.cache);
  add("device", t.device);
  return f;
}

// ------------------------------------------------------------------- phase

enum LatClass { kLatGet, kLatMultiGet, kLatWrite, kLatScan, kLatCount };
const char* const kLatNames[kLatCount] = {"get", "multiget", "write", "scan"};

/// What a phase's clock saw: the time spent in client calls per window of
/// whole rounds (the end-of-phase flush is the last window), and each call's
/// latency by class, in stream order.
struct Timing {
  std::vector<uint64_t> window_ns;
  std::vector<uint32_t> lat[kLatCount];

  double seconds() const {
    uint64_t ns = 0;
    for (uint64_t w : window_ns) ns += w;
    return static_cast<double>(ns) * 1e-9;
  }

  /// Keeps, for every window and every call, the faster of this timing and
  /// `other`'s, a timing of the same stream.
  void KeepFaster(const Timing& other) {
    for (size_t i = 0; i < window_ns.size(); ++i) {
      window_ns[i] = std::min(window_ns[i], other.window_ns[i]);
    }
    for (int c = 0; c < kLatCount; ++c) {
      for (size_t i = 0; i < lat[c].size(); ++i) {
        lat[c][i] = std::min(lat[c][i], other.lat[c][i]);
      }
    }
  }
};

struct Phase {
  uint64_t ops = 0;  ///< Operations; each MultiGet key counts as one.
  uint64_t multiget_keys = 0;
  uint64_t calls[6] = {};  ///< Client calls by OpClass.
  uint64_t failed = 0;
  Timing timing;
  Digests digests;
  /// Requests that failed; the oracle skips their answers.
  std::vector<uint64_t> failed_requests;
  /// Write time, and the part spent in writes during which the LSM flushed.
  uint64_t write_ns = 0;
  uint64_t flush_write_ns = 0;
  Totals before;
  Totals delta;

  uint64_t writes() const {
    return calls[static_cast<int>(OpClass::kInsert)] +
           calls[static_cast<int>(OpClass::kUpdate)] +
           calls[static_cast<int>(OpClass::kDelete)];
  }
  uint64_t point_keys() const {
    return calls[static_cast<int>(OpClass::kGet)] + multiget_keys;
  }
  double throughput() const { return static_cast<double>(ops) / timing.seconds(); }
};

uint32_t LatencyNs(uint64_t t0, uint64_t t1) {
  return static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX));
}

/// Measured phases per untraced run. Each repetition builds a fresh stack
/// and replays the same stream, so every counter and answer must repeat
/// exactly, and each window and each call does the same work in every
/// repetition. Timing metrics take the fastest of the five copies of each
/// 50 ms window and of each call: on a shared host other tenants slow a run
/// by 10-60% in bursts of tens of milliseconds to seconds and never speed it
/// up, and the fastest copies vary less from run to run than any whole
/// repetition does.
constexpr int kRepetitions = 5;
constexpr double kWindowSeconds = 0.05;

size_t WindowRounds(const WorkloadSpec& spec) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(spec.rounds_per_second * kWindowSeconds)));
}

/// Rounds in one repetition: the requested seconds are split evenly.
size_t Rounds(const WorkloadSpec& spec, int seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(spec.rounds_per_second * seconds /
                                          kRepetitions)));
}

rum::Status ApplyWrite(rum::AccessMethod* m, const Op& op) {
  switch (op.cls) {
    case OpClass::kInsert:
      return m->Insert(op.a, op.b);
    case OpClass::kUpdate:
      return m->Update(op.a, op.b);
    default:
      return m->Delete(op.a);
  }
}

/// The generated set-up inputs: bulk-load entries and set-up writes.
struct SetUpInputs {
  std::vector<rum::Entry> entries;
  std::vector<Op> prefill;
};

SetUpInputs MakeSetUpInputs(Generator* gen) {
  SetUpInputs in{gen->InitialEntries(), {}};
  gen->Prefill(&in.prefill);
  return in;
}

/// Bulk-loads the entries, applies the set-up writes and flushes: the
/// starting shape of the measured phase. Returns the client requests sent
/// through the method.
uint64_t SetUp(Stack* st, const SetUpInputs& in, Checks* checks) {
  rum::Status s = st->top->BulkLoad(in.entries);
  checks->Expect(s.ok(), "setup", "BulkLoad: " + s.ToString());
  for (const Op& op : in.prefill) {
    s = ApplyWrite(st->top.get(), op);
    checks->Expect(s.ok(), "setup", "prefill write: " + s.ToString());
  }
  s = st->top->Flush();
  if (s.ok()) s = st->device->FlushAll();
  checks->Expect(s.ok(), "setup", "flush: " + s.ToString());
  return in.prefill.size();
}

/// Runs the measured phase. kTraced adds the per-request bookkeeping the
/// traced run needs; the untraced loop carries none of it.
template <bool kTraced>
void RunPhase(Stack* st, const WorkloadSpec& spec, Generator* gen,
              size_t rounds, SpanRecorder* rec, Phase* ph, Checks* checks) {
  rum::AccessMethod* m = st->top.get();
  const Mix& mix = spec.mix;
  const size_t window_rounds = WindowRounds(spec);
  Timing& tm = ph->timing;
  tm = {};
  tm.lat[kLatGet].reserve(rounds * mix.get);
  tm.lat[kLatMultiGet].reserve(rounds * mix.multiget);
  tm.lat[kLatWrite].reserve(rounds * (mix.insert + mix.update + mix.del));
  tm.lat[kLatScan].reserve(rounds * mix.scan);
  std::vector<Op> ops;
  std::vector<rum::Key> keys;
  std::vector<std::optional<rum::Value>> values;
  std::vector<rum::Entry> rows;
  uint64_t request = 0;
  auto fail = [&](uint64_t n) {
    ph->failed += n;
    ph->failed_requests.push_back(request);
  };
  if constexpr (kTraced) rec->Reset();
  ph->before = Capture(*st);
  for (size_t r = 0; r < rounds; ++r) {
    if (r % window_rounds == 0) tm.window_ns.push_back(0);
    gen->NextRound(&ops, &keys);
    const uint64_t round_start = NowNs();
    for (const Op& op : ops) {
      ++request;
      ++ph->calls[static_cast<int>(op.cls)];
      switch (op.cls) {
        case OpClass::kGet: {
          if constexpr (kTraced) rec->BeginRequest(OpKind::kGet, request);
          const uint64_t t0 = NowNs();
          rum::Result<rum::Value> got = m->Get(op.a);
          const uint64_t t1 = NowNs();
          tm.lat[kLatGet].push_back(LatencyNs(t0, t1));
          ++ph->ops;
          if (got.ok()) {
            ph->digests.FoldGet(op.a, got.value());
          } else if (got.status().IsNotFound()) {
            ph->digests.FoldGet(op.a, std::nullopt);
          } else {
            fail(1);
          }
          break;
        }
        case OpClass::kMultiGet: {
          if constexpr (kTraced) rec->BeginRequest(OpKind::kMultiGet, request);
          std::span<const rum::Key> batch =
              std::span<const rum::Key>(keys).subspan(op.a, op.b);
          const uint64_t t0 = NowNs();
          rum::Status s = m->MultiGet(batch, &values);
          const uint64_t t1 = NowNs();
          tm.lat[kLatMultiGet].push_back(LatencyNs(t0, t1));
          ph->ops += batch.size();
          ph->multiget_keys += batch.size();
          if (!s.ok()) {
            fail(batch.size());
            break;
          }
          for (size_t i = 0; i < batch.size(); ++i) {
            ph->digests.FoldMultiGet(batch[i], values[i]);
          }
          break;
        }
        case OpClass::kInsert:
        case OpClass::kUpdate:
        case OpClass::kDelete: {
          uint64_t flushes_before = 0;
          if constexpr (kTraced) {
            rec->BeginRequest(OpKind::kWrite, request);
            if (st->lsm != nullptr) flushes_before = st->lsm->flushes();
          }
          const uint64_t t0 = NowNs();
          rum::Status s = ApplyWrite(m, op);
          const uint64_t t1 = NowNs();
          tm.lat[kLatWrite].push_back(LatencyNs(t0, t1));
          ++ph->ops;
          if constexpr (kTraced) {
            ph->write_ns += t1 - t0;
            if (st->lsm != nullptr && st->lsm->flushes() != flushes_before) {
              ph->flush_write_ns += t1 - t0;
            }
          }
          if (!s.ok()) fail(1);
          break;
        }
        case OpClass::kScan: {
          if constexpr (kTraced) rec->BeginRequest(OpKind::kScan, request);
          rows.clear();
          const uint64_t t0 = NowNs();
          rum::Status s = m->Scan(op.a, op.b, &rows);
          const uint64_t t1 = NowNs();
          tm.lat[kLatScan].push_back(LatencyNs(t0, t1));
          ++ph->ops;
          if (!s.ok()) {
            fail(1);
            break;
          }
          for (const rum::Entry& e : rows) ph->digests.FoldScanRow(e);
          ph->digests.FoldScanEnd(op.a);
          break;
        }
      }
    }
    tm.window_ns.back() += NowNs() - round_start;
  }
  // The flush policy: buffered state is pushed to the bottom of the stack
  // at the end of every phase, and that work counts inside the phase.
  if constexpr (kTraced) rec->BeginRequest(OpKind::kFlush, request + 1);
  const uint64_t flush_start = NowNs();
  rum::Status s = m->Flush();
  if (s.ok()) s = st->device->FlushAll();
  tm.window_ns.push_back(NowNs() - flush_start);
  checks->Expect(s.ok(), "flush", "end-of-phase flush: " + s.ToString());
  ph->delta = Delta(Capture(*st), ph->before);
}

/// Replays the stream on the oracle and compares every answer class.
void CheckAnswers(const WorkloadSpec& spec, uint64_t seed, size_t rounds,
                  const Phase& ph, Checks* checks) {
  Generator gen(spec, seed);
  Oracle oracle(gen.InitialEntries());
  std::vector<Op> ops;
  std::vector<rum::Key> keys;
  gen.Prefill(&ops);
  Digests digests;
  Digests discard;
  for (const Op& op : ops) oracle.Apply(op, keys, &discard);
  uint64_t request = 0;
  auto failed = ph.failed_requests.begin();
  for (size_t r = 0; r < rounds; ++r) {
    gen.NextRound(&ops, &keys);
    for (const Op& op : ops) {
      ++request;
      Digests* sink = &digests;
      if (failed != ph.failed_requests.end() && *failed == request) {
        sink = &discard;  // A failed read has no answer to compare.
        ++failed;
      }
      oracle.Apply(op, keys, sink);
    }
  }
  if (checks->Injected("oracle-get")) digests.get ^= 1;
  if (checks->Injected("oracle-multiget")) digests.multiget ^= 1;
  if (checks->Injected("oracle-scan")) digests.scan ^= 1;
  uint64_t want_size = oracle.size();
  if (checks->Injected("oracle-size")) ++want_size;
  checks->ExpectEq(ph.digests.get, digests.get, "oracle-get", "Get digest");
  checks->ExpectEq(ph.digests.multiget, digests.multiget, "oracle-multiget",
                   "MultiGet digest");
  checks->ExpectEq(ph.digests.scan, digests.scan, "oracle-scan", "Scan digest");
  checks->ExpectEq(ph.digests.scan_rows, digests.scan_rows, "oracle-scan",
                   "Scan rows");
  checks->ExpectEq(ph.delta.size, want_size, "oracle-size", "final size()");
}

/// The cross-checks between independently counted totals that hold on
/// every run. `issued` is every client request sent since construction.
void CheckCounters(const WorkloadSpec& spec, const Stack& st, const Phase& ph,
                   uint64_t issued, Checks* checks) {
  const Totals& d = ph.delta;
  const uint64_t bs = spec.options.block_size;

  uint64_t misses = d.misses + (checks->Injected("device-reads") ? 1 : 0);
  checks->ExpectEq(d.device.blocks_read, misses, "device-reads",
                   "BlockDevice blocks read vs cache misses");

  uint64_t hits = d.hits + (checks->Injected("cache-bytes") ? 1 : 0);
  checks->ExpectEq(d.cache.total_bytes_read(), bs * hits, "cache-bytes",
                   "cache bytes read vs block_size x hits");

  const uint64_t extra = checks->Injected("thread-io") ? 1 : 0;
  checks->ExpectEq(d.io.bytes_read,
                   d.method.total_bytes_read() + d.cache.total_bytes_read() +
                       d.device.total_bytes_read() + extra,
                   "thread-io", "ThisThreadIo bytes read vs layer counters");
  checks->ExpectEq(d.io.bytes_written,
                   d.method.total_bytes_written() + d.cache.total_bytes_written() +
                       d.device.total_bytes_written(),
                   "thread-io", "ThisThreadIo bytes written vs layer counters");

  if (st.scheduled != nullptr) {
    const rum::ServiceStats ss = st.scheduled->service_stats();
    checks->Expect(ss.LedgerHolds(), "ledger", "ServiceStats ledger identities");
    const uint64_t want = issued + (checks->Injected("ledger") ? 1 : 0);
    checks->ExpectEq(ss.submitted, want, "ledger",
                     "ServiceStats submitted vs requests issued");
  }

  if (st.lsm != nullptr) {
    // The false-positive rate of a Bloom filter with b bits per key and
    // k = round(b ln 2) probes is (1 - e^(-k/b))^k; the measured rate over
    // the phase must lie within a factor of 2 of it.
    size_t bits = spec.options.lsm.bloom_bits_per_key;
    if (checks->Injected("bloom")) bits += 10;
    const double k = std::max(1.0, std::round(bits * 0.6931471805599453));
    const double theory = std::pow(1.0 - std::exp(-k / bits), k);
    const uint64_t absent_probes = d.bloom_false_positives + d.bloom_negatives;
    const double measured =
        absent_probes == 0 ? 0.0
                           : static_cast<double>(d.bloom_false_positives) /
                                 static_cast<double>(absent_probes);
    checks->Expect(absent_probes >= 10000 && measured <= 2 * theory &&
                       measured >= theory / 2,
                   "bloom",
                   "false-positive rate " + std::to_string(measured) +
                       " over " + std::to_string(absent_probes) +
                       " probes vs theoretical " + std::to_string(theory));
  }
}

/// Checks only the traced run can make: wrapper call counts against the
/// cache's own tallies.
void CheckWrapperCounts(const Phase& ph, const SpanRecorder& rec,
                        Checks* checks) {
  checks->ExpectEq(rec.PhaseTally(Layer::kCache).read_calls,
                   ph.delta.hits + ph.delta.misses, "cache-calls",
                   "cache wrapper read calls vs hits + misses");
  checks->ExpectEq(rec.PhaseTally(Layer::kDevice).read_calls, ph.delta.misses,
                   "device-reads", "device wrapper read calls vs cache misses");
}

/// Two runs of the same stream must charge every counter and return every
/// answer identically. `corrupt` breaks the comparison on purpose.
void ExpectSameRun(const Phase& want, const Phase& got, const char* check,
                   bool corrupt, Checks* checks) {
  std::vector<std::pair<std::string, uint64_t>> w = Fields(want.delta);
  std::vector<std::pair<std::string, uint64_t>> g = Fields(got.delta);
  if (corrupt) ++g.front().second;
  for (size_t i = 0; i < w.size(); ++i) {
    checks->ExpectEq(g[i].second, w[i].second, check, g[i].first);
  }
  checks->Expect(got.digests == want.digests, check,
                 "answers differ between runs of the same stream");
}

// ------------------------------------------------------------------ output

double Percentile(std::vector<uint32_t> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

/// Peak resident set of this process so far, in MiB (VmHWM).
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The end-to-end metrics. Throughput and latency percentiles come from
/// `fastest`, the fastest copy of each window and call over the repetitions;
/// the byte and space counters are the first repetition's (all repeat).
std::vector<Metric> EndToEnd(const Phase& ph, const Timing& fastest, double setup_s,
                             double rss_mb) {
  const Totals& d = ph.delta;
  const double ops = static_cast<double>(ph.ops);
  std::vector<Metric> m = {{"setup_s", setup_s, "s"},
                           {"throughput_ops_s", ops / fastest.seconds(), "ops/s"}};
  for (int c = 0; c < kLatCount; ++c) {
    m.push_back({std::string(kLatNames[c]) + "_p50_us",
                 Percentile(fastest.lat[c], 0.50) / 1000.0, "us"});
    m.push_back({std::string(kLatNames[c]) + "_p99_us",
                 Percentile(fastest.lat[c], 0.99) / 1000.0, "us"});
  }
  m.push_back({"read_bytes_per_op", d.io.bytes_read / ops, "B/op"});
  m.push_back({"write_bytes_per_op", d.io.bytes_written / ops, "B/op"});
  // MO: resident device bytes plus the method's in-memory bytes (filters,
  // fences, memtable, index), per live entry; the cache is excluded.
  m.push_back({"space_bytes_per_entry",
               Ratio(static_cast<double>(d.device.total_space() +
                                         d.method.total_space()),
                     static_cast<double>(d.size)),
               "B/entry"});
  m.push_back({"peak_rss_mb", rss_mb, "MB"});
  return m;
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Stack& st,
                             const Phase& ph, const SpanRecorder& rec) {
  const Totals& d = ph.delta;
  const double ops = static_cast<double>(ph.ops);
  auto per_call = [&](Layer l) {
    LayerTally t = rec.PhaseTally(l);
    return Ratio(static_cast<double>(t.self_ns), static_cast<double>(t.calls));
  };
  auto calls_per_op = [&](Layer l) {
    return static_cast<double>(rec.PhaseTally(l).calls) / ops;
  };
  auto self = [&](OpKind k) {
    return static_cast<double>(rec.tally(Layer::kMethod, k).self_ns);
  };
  auto pages = [&](OpKind k) {
    return static_cast<double>(rec.tally(Layer::kCache, k).read_calls);
  };
  const double gets = static_cast<double>(ph.calls[static_cast<int>(OpClass::kGet)]);
  const double scans = static_cast<double>(ph.calls[static_cast<int>(OpClass::kScan)]);
  const double mg_keys = static_cast<double>(ph.multiget_keys);
  const double writes = static_cast<double>(ph.writes());
  double height = 0;
  for (const rum::BTree* bt : st.btrees) height += static_cast<double>(bt->height());
  const bool btree = !st.btrees.empty();
  return {
      {"service.calls_per_op", calls_per_op(Layer::kService), "calls/op"},
      {"service.self_ns_per_call", per_call(Layer::kService), "ns"},
      {"sharded.shard_calls_per_op",
       spec.options.service.enabled ? calls_per_op(Layer::kMethod) : 0.0,
       "calls/op"},
      {"sharded.self_ns_per_call", per_call(Layer::kSharded), "ns"},
      {"method.get.self_ns", Ratio(self(OpKind::kGet), gets), "ns"},
      {"btree.height", btree ? height / static_cast<double>(st.btrees.size()) : 0.0,
       "levels"},
      {"btree.pages", btree ? static_cast<double>(d.live_pages) : 0.0, "pages"},
      {"method.multiget.self_ns_per_key", Ratio(self(OpKind::kMultiGet), mg_keys),
       "ns"},
      {"method.batched_page_hits_per_key",
       Ratio(static_cast<double>(d.method.batched_page_hits), mg_keys), "hits/key"},
      {"cache.calls_per_op", calls_per_op(Layer::kCache), "calls/op"},
      {"cache.self_ns_per_call", per_call(Layer::kCache), "ns"},
      {"cache.hit_ratio",
       Ratio(static_cast<double>(d.hits), static_cast<double>(d.hits + d.misses)),
       "ratio"},
      {"cache.misses_per_op", static_cast<double>(d.misses) / ops, "misses/op"},
      {"cache.evictions_per_op", static_cast<double>(d.evictions) / ops,
       "evictions/op"},
      {"cache.write_backs_per_op", static_cast<double>(d.write_backs) / ops,
       "pages/op"},
      {"device.calls_per_op", calls_per_op(Layer::kDevice), "calls/op"},
      {"device.self_ns_per_call", per_call(Layer::kDevice), "ns"},
      {"device.read_bytes_per_op",
       static_cast<double>(d.device.total_bytes_read()) / ops, "B/op"},
      {"device.write_bytes_per_op",
       static_cast<double>(d.device.total_bytes_written()) / ops, "B/op"},
      {"lsm.flushes", static_cast<double>(d.lsm_flushes), "count"},
      {"lsm.compactions", static_cast<double>(d.lsm_compactions), "count"},
      {"lsm.compaction_records_per_write",
       Ratio(static_cast<double>(d.lsm_compaction_records), writes),
       "records/write"},
      {"lsm.flush_write_ns_share",
       Ratio(static_cast<double>(ph.flush_write_ns),
             static_cast<double>(ph.write_ns)),
       "ratio"},
      {"lsm.bloom_fp_rate",
       Ratio(static_cast<double>(d.bloom_false_positives),
             static_cast<double>(d.bloom_false_positives + d.bloom_negatives)),
       "ratio"},
      {"lsm.bloom_negatives_per_get",
       st.lsm != nullptr
           ? Ratio(static_cast<double>(d.bloom_negatives),
                   static_cast<double>(ph.point_keys()))
           : 0.0,
       "probes/get"},
      {"method.aux_read_bytes_per_op",
       static_cast<double>(d.method.bytes_read_aux) / ops, "B/op"},
      {"method.write.self_ns", Ratio(self(OpKind::kWrite), writes), "ns"},
      {"method.scan.self_ns", Ratio(self(OpKind::kScan), scans), "ns"},
      {"method.pages_per_scan", Ratio(pages(OpKind::kScan), scans), "pages"},
      {"lsm.runs", static_cast<double>(d.lsm_runs), "runs"},
      {"method.pages_per_get", Ratio(pages(OpKind::kGet), gets), "pages"},
      {"device.live_pages", static_cast<double>(d.live_pages), "pages"},
      {"lsm.levels", static_cast<double>(d.lsm_levels), "levels"},
  };
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Builds the stack as a user would, sets it up and runs the phase. Sets
/// `*setup_s` to the time from process start to the end of set-up, less the
/// time spent generating the set-up inputs.
bool RunUntraced(const WorkloadSpec& spec, uint64_t seed, size_t rounds,
                 Checks* checks, Phase* ph, double* setup_s) {
  const uint64_t input_start = NowNs();
  Generator gen(spec, seed);
  const SetUpInputs in = MakeSetUpInputs(&gen);
  const uint64_t input_ns = NowNs() - input_start;
  std::unique_ptr<Stack> st = BuildStack(spec, nullptr);
  if (st == nullptr) {
    std::fprintf(stderr, "rumbench: cannot build %.*s\n",
                 static_cast<int>(spec.name.size()), spec.name.data());
    return false;
  }
  const uint64_t issued = SetUp(st.get(), in, checks);
  *setup_s = static_cast<double>(NowNs() - g_process_start_ns - input_ns) * 1e-9;
  RunPhase<false>(st.get(), spec, &gen, rounds, nullptr, ph, checks);
  CheckCounters(spec, *st, *ph, issued + ph->ops, checks);
  return true;
}

void LogSamples(const char* what, const Phase& ph) {
  std::fprintf(stderr, "rumbench %s: ops=%llu windows=%zu phase=%.3fs samples:",
               what, static_cast<unsigned long long>(ph.ops),
               ph.timing.window_ns.size(), ph.timing.seconds());
  for (int c = 0; c < kLatCount; ++c) {
    std::fprintf(stderr, " %s=%zu", kLatNames[c], ph.timing.lat[c].size());
  }
  std::fprintf(stderr, "\n");
}

/// The untraced run: kRepetitions phases on fresh stacks, end-to-end
/// metrics, no wrappers anywhere.
int MainUntraced(const Args& args, const WorkloadSpec& spec, size_t rounds,
                 Checks* checks) {
  std::vector<Phase> reps(kRepetitions);
  Timing fastest;
  double setup_s = 0;
  for (Phase& rep : reps) {
    double rep_setup_s = 0;
    if (!RunUntraced(spec, args.seed, rounds, checks, &rep, &rep_setup_s)) return 1;
    LogSamples("repetition", rep);
    if (&rep == &reps.front()) {
      setup_s = rep_setup_s;  // The cold set-up; later ones are warm.
      fastest = std::move(rep.timing);
    } else {
      fastest.KeepFaster(rep.timing);
    }
    rep.timing = {};
  }
  const Phase& plain = reps.front();
  const double rss_mb = PeakRssMb();
  const std::vector<Metric> metrics = EndToEnd(plain, fastest, setup_s, rss_mb);
  fastest = {};
  CheckAnswers(spec, args.seed, rounds, plain, checks);
  for (size_t k = 1; k < reps.size(); ++k) {
    ExpectSameRun(plain, reps[k], "repeat", k == 1 && checks->Injected("repeat"),
                  checks);
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Phase& rep : reps) {
    attempted += rep.ops;
    failed += rep.failed;
  }
  PrintResult(checks->ok(), attempted, failed, metrics);
  return checks->ok() ? 0 : 1;
}

/// The traced run: the stream through a hand-built stack with a wrapper at
/// every boundary, then once more untraced, as the base of the tracing
/// overhead and of the parity check.
int MainTraced(const Args& args, const WorkloadSpec& spec, size_t rounds,
               Checks* checks) {
  SpanRecorder rec(size_t{1} << 18);
  Phase traced;
  std::vector<Metric> metrics;
  {
    Generator gen(spec, args.seed);
    const SetUpInputs in = MakeSetUpInputs(&gen);
    std::unique_ptr<Stack> st = BuildStack(spec, &rec);
    if (st == nullptr) {
      std::fprintf(stderr, "rumbench: cannot build traced %s\n",
                   args.workload.c_str());
      return 1;
    }
    const uint64_t issued = SetUp(st.get(), in, checks);
    if (checks->Injected("cache-calls")) st->traced_cache->DropNextReadCall();
    if (checks->Injected("device-wrapper")) st->traced_block->DropNextReadCall();
    RunPhase<true>(st.get(), spec, &gen, rounds, &rec, &traced, checks);
    LogSamples("traced", traced);
    CheckCounters(spec, *st, traced, issued + traced.ops, checks);
    CheckWrapperCounts(traced, rec, checks);
    metrics = PerLayer(spec, *st, traced, rec);
  }
  CheckAnswers(spec, args.seed, rounds, traced, checks);
  // Made after the traced run, so the traced run alone pays for growing the
  // heap and the overhead is not understated.
  Phase plain;
  double unused = 0;
  if (!RunUntraced(spec, args.seed, rounds, checks, &plain, &unused)) return 1;
  LogSamples("untraced", plain);
  metrics.push_back(
      {"trace.overhead", traced.throughput() / plain.throughput(), "ratio"});
  ExpectSameRun(plain, traced, "trace-parity", checks->Injected("trace-parity"),
                checks);
  if (!args.spans_out.empty() && !rec.WriteRecords(args.spans_out)) {
    std::fprintf(stderr, "rumbench: cannot write %s\n", args.spans_out.c_str());
  }
  PrintResult(checks->ok(), traced.ops + plain.ops, traced.failed + plain.failed,
              metrics);
  return checks->ok() ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rumbench --workload <name> --seed <n> --seconds <1-600> "
                 "--trace <0|1> [--spans-out <file>] [--inject <check>]\n"
                 "workloads:");
    for (std::string_view w : WorkloadNames()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(w.size()), w.data());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const size_t rounds = Rounds(spec, args.seconds);
  Checks checks(args.inject);
  return args.trace ? MainTraced(args, spec, rounds, &checks)
                    : MainUntraced(args, spec, rounds, &checks);
}

}  // namespace
}  // namespace rumbench

int main(int argc, char** argv) { return rumbench::Main(argc, argv); }
