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
// Two pieces keep a machine rehash O(1) in its inbox length:
//   - StateHasher mixes one 64-bit word with one 64x64->128-bit multiply
//     folded by XOR of the halves (wyhash's "mum"), not a byte-wise loop.
//   - A queue contributes its length and a rolling polynomial digest of its
//     type ids (Karp-Rabin): digest = sum of term(type_i) * B^(n-1-i) over
//     the n live events, front (i = 0) to back, mod p = 2^61 - 1, where term
//     is SplitMix64 of the type id reduced mod p. A push is
//     digest = digest * B + term; a pop subtracts term * B^(n-1) with B^n
//     kept alongside; a removal from the middle divides the part in front
//     of the removed event by B (detail::EventQueue, stateful runtimes
//     only).
//
// Why mod 2^61 - 1 and not mod 2^64: a two-type queue in Thue-Morse order
// and its complement differ by (term_a - term_b) times the product of
// (B^(2^j) - 1) for j < k at length 2^k, and with an odd base factor j
// carries at least j + 2 factors of two (one for j = 0). Mod 2^64 the
// difference therefore vanishes for EVERY base once the length reaches
// 1024, and for some bases already at 64 to 128 — inboxes here reach 250
// events, and a collision merges distinct states and makes pruning
// unsound. p = 2^61 - 1 is prime, so two distinct length-n queues collide
// for at most n of the p possible bases, and reducing a 122-bit product is
// a mask, a shift and an add.
//
// Fingerprints are process-local: machine contributions hash interned
// EventTypeIds, whose values depend on first-use order within a process run.
// They must never be serialized; everything durable (traces, replay) stays
// fingerprint-free, so the hash functions may change between versions.
//
// Visited-set implementations (the flat FingerprintSet they must answer
// identically to lives in tests/flat_fingerprint_set.h):
//   - TieredFingerprintSet: an LSM-tree (O'Neil et al., 1996) over keys
//     fp * odd constant, a bijection that spreads sequential fingerprints.
//     An exact HOT level, open addressing indexed by a key's top bits, takes
//     all inserts; its slot order is key order except inside probe clusters,
//     so when it fills (at most half full) it COMPACTS into a sorted run by a
//     linear scan and an insertion fix-up. ONE blocked bloom filter (Putze et
//     al., WEA 2007) covers all runs; a compaction adds its run's keys, and
//     the filter is rebuilt only when its block count doubles. Once kMaxRuns
//     runs exist, the newest suffix in which each older run holds at most
//     twice the keys of the newer ones is merged, so N keys at hot size H make
//     O(log(N/H)) runs and rewrites per key. Runs can spill to mmap-ed files.
//     A bloom positive binary-searches the runs, so membership stays EXACT
//     (pinned by tests/core_visited_tiered_test.cc).
//   - explore::ShardedFingerprintSet: 64 independently locked shards, each a
//     TieredFingerprintSet, for parallel workers (explore/).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace systest {

/// 64-bit digest of a program state (or of one machine's contribution).
using Fingerprint = std::uint64_t;

/// Incremental word hasher: one 64x64->128-bit multiply per word, folded by
/// XOR of the product's halves. Also the extension point handed to
/// Machine::FingerprintPayload, so domain harnesses mix their semantic state
/// (counters, table contents, ...) into the default structural view.
class StateHasher {
 public:
  StateHasher& Mix(std::uint64_t value) noexcept {
    const unsigned __int128 product =
        static_cast<unsigned __int128>(hash_ ^ value) * kMultiplier;
    hash_ = static_cast<std::uint64_t>(product) ^
            static_cast<std::uint64_t>(product >> 64);
    return *this;
  }

  [[nodiscard]] Fingerprint Digest() const noexcept { return hash_; }

 private:
  static constexpr std::uint64_t kSeed = 0xa0761d6478bd642full;
  static constexpr std::uint64_t kMultiplier = 0xe7037ed1a0b428dbull;
  std::uint64_t hash_ = kSeed;
};

namespace detail {

/// Arithmetic modulo the Mersenne prime 2^61 - 1, the field of the queue
/// digest (see file header). Operands and results are canonical: < kMod61.
inline constexpr std::uint64_t kMod61 = (std::uint64_t{1} << 61) - 1;

[[nodiscard]] constexpr std::uint64_t Reduce61(std::uint64_t x) noexcept {
  x = (x & kMod61) + (x >> 61);
  return x >= kMod61 ? x - kMod61 : x;
}

[[nodiscard]] constexpr std::uint64_t MulMod61(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  // product < (2^61 - 1)^2, so its two 61-bit halves sum below 2 * kMod61.
  const std::uint64_t sum = (static_cast<std::uint64_t>(product) & kMod61) +
                            static_cast<std::uint64_t>(product >> 61);
  return sum >= kMod61 ? sum - kMod61 : sum;
}

[[nodiscard]] constexpr std::uint64_t AddMod61(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  const std::uint64_t sum = a + b;
  return sum >= kMod61 ? sum - kMod61 : sum;
}

[[nodiscard]] constexpr std::uint64_t SubMod61(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  return a >= b ? a - b : a + kMod61 - b;
}

[[nodiscard]] constexpr std::uint64_t PowMod61(std::uint64_t base,
                                               std::uint64_t exp) noexcept {
  std::uint64_t result = 1;
  for (; exp != 0; exp >>= 1) {
    if ((exp & 1) != 0) result = MulMod61(result, base);
    base = MulMod61(base, base);
  }
  return result;
}

}  // namespace detail

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
  std::uint64_t run_probes = 0;      ///< bloom positives (run searches)
  std::uint64_t bloom_true_positives = 0;   ///< a run held the state
  std::uint64_t bloom_false_positives = 0;  ///< no run held it (bloom lied)
  // Maintenance (cumulative).
  std::uint64_t compactions = 0;     ///< hot level flushed into a new run
  std::uint64_t merges = 0;          ///< size-tiered suffix merges
  std::uint64_t merged_entries = 0;  ///< keys written by merges
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
    merged_entries += other.merged_entries;
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

/// The hot level: linear-probe set of 64-bit keys in a power-of-two table
/// indexed by a key's top bits; 0 is the empty slot (a zero key sets a
/// flag). It doubles at 7/8 load, and the doubling that makes room for
/// `ceiling` entries goes to twice that: it is at most half full then.
class HotFingerprintTable {
 public:
  explicit HotFingerprintTable(std::size_t ceiling) : ceiling_(ceiling) {
    Rehash(kInitialCapacity);
  }

  [[nodiscard]] bool Contains(Fingerprint key) const noexcept {
    if (key == 0) return has_zero_;
    for (std::size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
      if (slots_[i] == 0) return false;
    }
  }

  /// Pre-condition: !Contains(key).
  void Insert(Fingerprint key) {
    ++size_;
    if (key == 0) {
      has_zero_ = true;
      return;
    }
    if (size_ * 8 >= (mask_ + 1) * 7) Rehash((mask_ + 1) * 2);
    Place(key);
  }

  [[nodiscard]] std::size_t Size() const noexcept { return size_; }

  /// Moves the contents into `out` in ascending key order and empties the
  /// table, keeping its allocation for the next fill cycle.
  void DrainSorted(std::vector<Fingerprint>& out);

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  [[nodiscard]] std::size_t Home(Fingerprint key) const noexcept {
    return static_cast<std::size_t>(key >> shift_);
  }
  void Place(Fingerprint key) noexcept {
    std::size_t i = Home(key);
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = key;
  }
  void Rehash(std::size_t capacity);

  std::vector<Fingerprint> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;  ///< 64 - log2(capacity)
  std::size_t size_ = 0;
  std::size_t ceiling_;
  bool has_zero_ = false;
};

/// Blocked bloom filter: 64-byte (cache-line) blocks, 7 bits per key inside
/// one block, sized at 12-24 bits per key for a ~0.5% false-positive rate.
/// A probe touches exactly one cache line.
class BlockedBloom {
 public:
  /// Sizes the filter for `n` keys at 12+ bits each. Returns true if that
  /// took a bigger, empty filter (old words freed first) to re-add keys to.
  bool Grow(std::size_t n);

  void Add(Fingerprint key) noexcept {
    std::uint64_t* block = words_.data() + BlockOffset(key);
    std::uint64_t h2 = key * 0x165667b19e3779f9ull;
    for (int k = 0; k < kProbes; ++k, h2 >>= 9) {
      block[(h2 & 511u) >> 6] |= 1ull << (h2 & 63u);
    }
  }

  [[nodiscard]] bool MayContain(Fingerprint key) const noexcept {
    const std::uint64_t* block = words_.data() + BlockOffset(key);
    std::uint64_t h2 = key * 0x165667b19e3779f9ull;
    for (int k = 0; k < kProbes; ++k, h2 >>= 9) {
      if ((block[(h2 & 511u) >> 6] & (1ull << (h2 & 63u))) == 0) return false;
    }
    return true;
  }

 private:
  static constexpr int kProbes = 7;

  /// First word of the key's block: the top block_bits_ bits of a remix.
  /// Split into two shifts because block_bits_ may be 0 (one block) and a
  /// single >> 64 would be UB.
  [[nodiscard]] std::size_t BlockOffset(Fingerprint key) const noexcept {
    return static_cast<std::size_t>(
               ((key * 0xc2b2ae3d27d4eb4full) >> 1) >> (63 - block_bits_))
           << 3;
  }

  std::vector<std::uint64_t> words_ = std::vector<std::uint64_t>(8);
  int block_bits_ = 0;  ///< log2(block count); 8 words per block
};

/// One immutable sorted run of keys, optionally spilled to a file in the
/// owner's spill directory and mapped back read-only.
class SortedRun {
 public:
  /// Takes ownership of `keys` (sorted, deduplicated). With a non-empty
  /// `spill_dir` the run is written to a fresh file there and mmap-ed; on
  /// any I/O failure it silently stays in memory (correctness first, disk
  /// residency best-effort). `spilled_bytes` is bumped by the file size on
  /// a successful spill.
  SortedRun(std::vector<Fingerprint> keys, const std::string& spill_dir,
            std::uint64_t& spilled_bytes);
  ~SortedRun();
  SortedRun(const SortedRun&) = delete;
  SortedRun& operator=(const SortedRun&) = delete;

  [[nodiscard]] std::span<const Fingerprint> Keys() const noexcept {
    return keys_;
  }
  [[nodiscard]] bool Contains(Fingerprint key) const noexcept {
    return std::binary_search(keys_.begin(), keys_.end(), key);
  }
  [[nodiscard]] bool Spilled() const noexcept { return !path_.empty(); }

 private:
  std::vector<Fingerprint> mem_;       ///< empty once spilled
  std::span<const Fingerprint> keys_;  ///< mem_, or the read-only mapping
  std::string path_;  ///< spill file (unlinked on destruction)
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
  /// footprint is its bloom filter (~1.5-3 bytes/entry), not the runs.
  std::string spill_dir;
};

/// The two-level visited set (see file header). Single-threaded; parallel
/// workers get one per shard via explore::ShardedFingerprintSet.
class TieredFingerprintSet final : public VisitedSet {
 public:
  explicit TieredFingerprintSet(const TieredOptions& options);

  bool Insert(Fingerprint fp) override;
  [[nodiscard]] std::size_t Size() const override {
    return run_entries_ + hot_.Size();
  }
  [[nodiscard]] VisitedStats Stats() const override;

  /// Pure membership (no stats traffic, no insertion) — test/debug helper.
  [[nodiscard]] bool Contains(Fingerprint fp) const noexcept;
  /// Back-level run sizes, oldest first — test/debug helper.
  [[nodiscard]] std::vector<std::size_t> RunSizes() const;

  /// Back-level runs are merged once this many accumulate.
  static constexpr std::size_t kMaxRuns = 8;

  /// The bijective remix the set is keyed by (see file header).
  static constexpr Fingerprint KeyOf(Fingerprint fp) noexcept {
    return fp * 0x9e3779b97f4a7c15ull;
  }

 private:
  [[nodiscard]] bool RunsContain(Fingerprint key) const noexcept;
  void Compact();
  void MergeNewestRuns();

  TieredOptions options_;
  detail::HotFingerprintTable hot_;
  detail::BlockedBloom bloom_;  ///< over the keys of every run
  std::vector<std::unique_ptr<detail::SortedRun>> runs_;  ///< oldest first
  std::size_t run_entries_ = 0;
  VisitedStats stats_;
};

}  // namespace systest
