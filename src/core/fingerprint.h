// SysTest systematic-testing framework.
//
// Execution fingerprinting — the state-space-caching half of stateful
// exploration. A Fingerprint is a 64-bit digest of the serialized system's
// current program state: for every live machine its dense StateId, its
// queued event-type ids (the queue head order the scheduler actually sees),
// its receive-wait set, and optionally a domain payload contributed through
// Machine::FingerprintPayload. The Runtime maintains the digest
// INCREMENTALLY: each machine's contribution is hashed separately and
// XOR-combined into the world fingerprint, so a scheduling step only rehashes
// the machines it actually touched (the stepped machine plus event targets),
// not the world.
//
// Fingerprints are process-local: machine contributions hash interned
// EventTypeIds, whose values depend on first-use order within a process run.
// They must never be serialized; everything durable (traces, replay) stays
// fingerprint-free.
//
// Visited-set implementations (the flat FingerprintSet they must answer
// identically to lives in tests/flat_fingerprint_set.h):
//   - TieredFingerprintSet: two levels. An exact bounded HOT level (open
//     addressing over raw 64-bit fingerprints) absorbs all inserts; when it
//     fills, its contents COMPACT into an immutable sorted run fronted by a
//     blocked bloom filter, and the hot level starts over. Runs merge k-way
//     as they accumulate and can spill to mmap-able files on disk, so
//     hundreds of millions of fingerprints fit without the honest hit rate
//     collapsing at the old flat cap. Because entries are already 64-bit
//     fingerprints, back-level membership stays EXACT: a bloom negative
//     skips the run, a bloom positive binary-searches it — the filter only
//     saves probes, it never changes an answer, so pruning soundness is
//     identical to the flat set (pinned by tests/core_visited_tiered_test.cc).
//   - explore::ShardedFingerprintSet: 64 independently locked shards, each a
//     TieredFingerprintSet, for parallel workers (explore/).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace systest {

/// 64-bit digest of a program state (or of one machine's contribution).
using Fingerprint = std::uint64_t;

/// Incremental FNV-1a 64 over 64-bit words. Also the extension point handed
/// to Machine::FingerprintPayload, so domain harnesses mix their semantic
/// state (counters, table contents, ...) into the default structural view.
class StateHasher {
 public:
  StateHasher& Mix(std::uint64_t value) noexcept {
    // FNV-1a, one byte at a time over the little-endian word: keeps the
    // avalanche of the byte-wise reference function without materializing a
    // buffer.
    for (int shift = 0; shift < 64; shift += 8) {
      hash_ ^= (value >> shift) & 0xffu;
      hash_ *= kPrime;
    }
    return *this;
  }

  [[nodiscard]] Fingerprint Digest() const noexcept { return hash_; }

 private:
  static constexpr std::uint64_t kOffset = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t hash_ = kOffset;
};

/// Consecutive already-visited states after which an execution is pruned
/// (see VisitedSet): long enough that an execution crossing known territory
/// can still diverge back out of it, short enough that executions which
/// reconverged for good stop burning budget.
inline constexpr std::uint64_t kFingerprintPruneRun = 8;

/// Internal telemetry of a visited set (obs "visited.*" instruments and the
/// TestReport "visited" block). The flat set reports all-zero; the tiered
/// set counts its level traffic.
struct VisitedStats {
  // Probe traffic (cumulative).
  std::uint64_t hot_hits = 0;        ///< probes answered by the hot level
  std::uint64_t run_probes = 0;      ///< binary searches (bloom positives)
  std::uint64_t bloom_true_positives = 0;   ///< run probe found the state
  std::uint64_t bloom_false_positives = 0;  ///< run probe missed (bloom lied)
  // Maintenance (cumulative).
  std::uint64_t compactions = 0;     ///< hot level flushed into a new run
  std::uint64_t merges = 0;          ///< k-way run merges
  std::uint64_t spilled_bytes = 0;   ///< run bytes written to the spill dir
  // Occupancy (snapshot at the time Stats() was taken).
  std::uint64_t hot_entries = 0;     ///< fingerprints in the hot level
  std::uint64_t run_entries = 0;     ///< fingerprints across back-level runs
  std::uint64_t runs = 0;            ///< live back-level runs
  std::uint64_t spilled_runs = 0;    ///< runs currently living on disk

  VisitedStats& operator+=(const VisitedStats& other) noexcept {
    hot_hits += other.hot_hits;
    run_probes += other.run_probes;
    bloom_true_positives += other.bloom_true_positives;
    bloom_false_positives += other.bloom_false_positives;
    compactions += other.compactions;
    merges += other.merges;
    spilled_bytes += other.spilled_bytes;
    hot_entries += other.hot_entries;
    run_entries += other.run_entries;
    runs += other.runs;
    spilled_runs += other.spilled_runs;
    return *this;
  }
};

/// Engine-side interface over "the set of program states any execution has
/// visited". A one-worker campaign (the serial TestingEngine) owns a
/// TieredFingerprintSet; several workers share a ShardedFingerprintSet
/// (explore/). One virtual
/// call per scheduling step, paid only when TestConfig::stateful is on.
class VisitedSet {
 public:
  virtual ~VisitedSet() = default;

  /// Records `fp` as visited. Returns true when the state is novel (a miss
  /// in cache terms), false when it was already present (a hit).
  virtual bool Insert(Fingerprint fp) = 0;

  /// Distinct states recorded so far (all levels).
  [[nodiscard]] virtual std::size_t Size() const = 0;

  /// Level/maintenance telemetry. Flat sets report zeros.
  [[nodiscard]] virtual VisitedStats Stats() const { return {}; }
};

namespace detail {

/// The hot level: open-addressing (linear probe) set of raw 64-bit
/// fingerprints, power-of-two table, 0 reserved as the empty slot (a real
/// zero fingerprint is tracked in a side flag). The table grows by doubling
/// up to the configured hot capacity's load ceiling, then the owner compacts
/// it away — Clear() keeps the allocation, so steady-state compaction cycles
/// allocate nothing.
class HotFingerprintTable {
 public:
  HotFingerprintTable() { Rehash(kInitialCapacity); }

  [[nodiscard]] bool Contains(Fingerprint fp) const noexcept {
    if (fp == 0) return has_zero_;
    std::size_t i = IndexOf(fp);
    while (true) {
      const Fingerprint slot = slots_[i];
      if (slot == fp) return true;
      if (slot == 0) return false;
      i = (i + 1) & mask_;
    }
  }

  /// Pre-condition: !Contains(fp).
  void Insert(Fingerprint fp) {
    if (fp == 0) {
      has_zero_ = true;
      ++size_;
      return;
    }
    if ((size_ + 1) * 8 >= (mask_ + 1) * 7) Rehash((mask_ + 1) * 2);
    std::size_t i = IndexOf(fp);
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = fp;
    ++size_;
  }

  [[nodiscard]] std::size_t Size() const noexcept { return size_; }

  /// Empties the table, keeping its capacity for the next fill cycle.
  void Clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), 0);
    has_zero_ = false;
    size_ = 0;
  }

  /// Drains the contents into `out` (appended, unsorted).
  void AppendTo(std::vector<Fingerprint>& out) const {
    if (has_zero_) out.push_back(0);
    for (const Fingerprint slot : slots_) {
      if (slot != 0) out.push_back(slot);
    }
  }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  /// Fingerprints arrive well mixed, but the sharded wrapper consumes their
  /// LOW bits for shard selection, so the index comes from the high bits of
  /// a multiplicative remix — shard-mates don't all collide into one probe
  /// chain.
  [[nodiscard]] std::size_t IndexOf(Fingerprint fp) const noexcept {
    return static_cast<std::size_t>((fp * 0x9e3779b97f4a7c15ull) >> shift_) &
           mask_;
  }

  void Rehash(std::size_t capacity) {
    std::vector<Fingerprint> old = std::move(slots_);
    slots_.assign(capacity, 0);
    mask_ = capacity - 1;
    shift_ = 32;  // take index bits from the middle-high word
    for (const Fingerprint fp : old) {
      if (fp == 0) continue;
      std::size_t i = IndexOf(fp);
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = fp;
    }
  }

  std::vector<Fingerprint> slots_;
  std::size_t mask_ = 0;
  int shift_ = 32;
  std::size_t size_ = 0;
  bool has_zero_ = false;
};

/// Blocked bloom filter over one immutable run: 64-byte (cache-line) blocks,
/// 7 bits per key inside one block, sized at ~12 bits/entry for a ~0.5%
/// false-positive rate. A probe touches exactly one cache line, so the
/// common back-level MISS costs one filter lookup per run instead of a
/// binary search into (possibly disk-resident) run data.
class BlockedBloom {
 public:
  void Build(const Fingerprint* data, std::size_t n);
  [[nodiscard]] bool MayContain(Fingerprint fp) const noexcept {
    if (words_.empty()) return false;
    const std::uint64_t h1 = fp * 0xc2b2ae3d27d4eb4full;
    const std::uint64_t* block = words_.data() + (BlockIndex(h1) << 3);
    std::uint64_t h2 = fp * 0x165667b19e3779f9ull;
    for (int k = 0; k < kProbes; ++k) {
      const unsigned bit = static_cast<unsigned>(h2 & 511u);
      h2 >>= 9;
      if ((block[bit >> 6] & (1ull << (bit & 63u))) == 0) return false;
    }
    return true;
  }

 private:
  static constexpr int kProbes = 7;

  /// Top block_bits_ bits of the remix hash. Split into two shifts because
  /// block_bits_ may be 0 (one block) and a single >> 64 would be UB.
  [[nodiscard]] std::uint64_t BlockIndex(std::uint64_t h1) const noexcept {
    return (h1 >> 1) >> (63 - block_bits_);
  }

  std::vector<std::uint64_t> words_;  ///< 8 words (one cache line) per block
  int block_bits_ = 0;                ///< log2(block count)
};

/// One immutable sorted run of fingerprints, optionally spilled to a file in
/// the owner's spill directory and mapped back read-only. Membership is a
/// bloom check then a binary search — exact either way.
class SortedRun {
 public:
  /// Takes ownership of `entries` (sorted, deduplicated). With a non-empty
  /// `spill_dir` the run is written to a fresh file there and mmap-ed; on
  /// any I/O failure it silently stays in memory (correctness first, disk
  /// residency best-effort). `spilled_bytes` is bumped by the file size on
  /// a successful spill.
  SortedRun(std::vector<Fingerprint> entries, const std::string& spill_dir,
            std::uint64_t& spilled_bytes);
  ~SortedRun();
  SortedRun(const SortedRun&) = delete;
  SortedRun& operator=(const SortedRun&) = delete;

  [[nodiscard]] bool MayContain(Fingerprint fp) const noexcept {
    return bloom_.MayContain(fp);
  }
  [[nodiscard]] bool Contains(Fingerprint fp) const noexcept;
  [[nodiscard]] std::size_t Size() const noexcept { return size_; }
  [[nodiscard]] const Fingerprint* Data() const noexcept { return data_; }
  [[nodiscard]] bool Spilled() const noexcept { return map_ != nullptr; }
  [[nodiscard]] const std::string& Path() const noexcept { return path_; }

 private:
  std::vector<Fingerprint> mem_;      ///< empty once spilled
  const Fingerprint* data_ = nullptr;
  std::size_t size_ = 0;
  BlockedBloom bloom_;
  void* map_ = nullptr;               ///< mmap base when spilled
  std::size_t map_bytes_ = 0;
  std::string path_;                  ///< spill file (unlinked on destruction)
};

}  // namespace detail

/// Configuration of a TieredFingerprintSet (TestConfig::{max_visited,
/// max_visited_hot, visited_spill_dir}).
struct TieredOptions {
  /// Total distinct-state budget across BOTH levels. Beyond it the set
  /// freezes exactly like the flat set: known states still hit, unseen
  /// states are reported novel without being recorded.
  std::size_t max_entries = 1u << 20;
  /// Hot-level capacity: when the exact in-memory front reaches this many
  /// entries it compacts into a sorted run. With hot >= max_entries the set
  /// never compacts and behaves exactly like a flat capped set.
  std::size_t hot_entries = 1u << 20;
  /// Non-empty: compacted/merged runs are written here as raw little-endian
  /// 64-bit files and mapped back read-only, so the back level's memory
  /// footprint is the bloom filters (~1.5 bytes/entry), not the runs.
  std::string spill_dir;
};

/// The two-level visited set (see file header). Single-threaded; parallel
/// workers get one per shard via explore::ShardedFingerprintSet.
class TieredFingerprintSet final : public VisitedSet {
 public:
  explicit TieredFingerprintSet(const TieredOptions& options);
  ~TieredFingerprintSet() override;

  bool Insert(Fingerprint fp) override;
  [[nodiscard]] std::size_t Size() const override { return total_entries_; }
  [[nodiscard]] VisitedStats Stats() const override;

  /// Pure membership (no stats traffic, no insertion) — test/debug helper.
  [[nodiscard]] bool Contains(Fingerprint fp) const noexcept;

  /// Back-level runs merge k-way whenever this many accumulate.
  static constexpr std::size_t kMaxRuns = 8;

 private:
  [[nodiscard]] bool ProbeRuns(Fingerprint fp);
  void Compact();

  TieredOptions options_;
  detail::HotFingerprintTable hot_;
  std::vector<std::unique_ptr<detail::SortedRun>> runs_;
  std::size_t total_entries_ = 0;  ///< hot + runs (the value Size() reports)
  std::size_t run_entries_ = 0;
  VisitedStats stats_;
};

}  // namespace systest
