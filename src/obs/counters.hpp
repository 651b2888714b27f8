// Deterministic counter registry: dotted-name monotonic counters and
// power-of-two histograms, snapshotted per replication and merged in seed
// order so `--counters=FILE` JSONL output is byte-identical for any --jobs.
//
// Determinism contract: counter values derive only from simulated work
// (events fired, moves accepted, demands rerouted, ...), never from wall
// time — so totals are a pure function of the scenario and seed. Sums
// commute, so it does not matter which thread contributed which share: the
// registry is mutex-protected and safe to share across ParallelRunner
// workers (the nested-portfolio fan-out counts into its cell's registry
// from several threads when the cell list is shorter than the pool).
//
// Emission order is canonical: counters sorted by name, then histograms
// sorted by name, experiments in manifest order — no merge-order dependence
// survives into the output.
//
// With `EEND_OBS_ENABLED == 0` the types keep their shape (engine plumbing
// still compiles) but `add`/`observe` are no-ops and snapshots stay empty.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/obs.hpp"

namespace eend::obs {

/// Histogram bucket i counts values v with bit_width(v) == i, i.e. bucket 0
/// holds v == 0, bucket 1 holds v == 1, bucket 2 holds 2..3, and so on;
/// the last bucket absorbs everything past 2^(kHistBuckets-1).
inline constexpr std::size_t kHistBuckets = 20;

std::size_t hist_bucket(std::uint64_t value);

struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  void observe(std::uint64_t value);
  void merge_from(const HistogramData& other);
};

/// Order-independent aggregate of one registry (or a merge of several).
/// std::map keys give the canonical sorted-by-name emission order.
struct CounterSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, HistogramData> histograms;

  bool empty() const { return counters.empty() && histograms.empty(); }
  void clear();
  void merge_from(const CounterSnapshot& other);

  /// One JSONL line per counter then per histogram:
  ///   {"experiment":"id","counter":"name","value":N}
  ///   {"experiment":"id","histogram":"name","count":N,"sum":S,"buckets":[..]}
  void write_jsonl(std::ostream& os, std::string_view experiment) const;
};

/// Thread-safe sink for live counts. Cool paths pay one lock + map lookup
/// per call; hot paths batch through HotCounter and publish once.
class CounterRegistry {
 public:
  void add(std::string_view name, std::uint64_t delta = 1);
  void observe(std::string_view name, std::uint64_t value);

  CounterSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, HistogramData, std::less<>> histograms_;
};

/// The calling thread's current registry (nullptr when none installed).
CounterRegistry* current();

/// RAII install of a registry as the calling thread's current one.
/// Installing nullptr is valid and masks any outer registry.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(CounterRegistry* reg);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  CounterRegistry* prev_;
};

/// Count into the calling thread's current registry; no-op without one
/// (or with the telemetry gate compiled off).
void count(std::string_view name, std::uint64_t delta = 1);
void observe(std::string_view name, std::uint64_t value);

/// count() a hot counter's total, nothing when it is zero (unused counters
/// stay absent), and reset it.
inline void publish(std::string_view name, HotCounter& c) {
  if (c.value() > 0) count(name, c.value());
  c = HotCounter{};
}

}  // namespace eend::obs
