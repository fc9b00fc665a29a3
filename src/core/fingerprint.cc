// SysTest systematic-testing framework.
//
// TieredFingerprintSet implementation: sort-free compaction, size-tiered run
// merges, the back level's shared blocked bloom filter, and the optional
// mmap spill path. See fingerprint.h for the design narrative.
#include "src/core/fingerprint.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

namespace systest {
namespace detail {

void HotFingerprintTable::DrainSorted(std::vector<Fingerprint>& out) {
  out.clear();
  out.reserve(size_);
  if (has_zero_) out.push_back(0);
  // An entry sits at or after its home slot, and a cluster that runs off
  // the table's end continues at slot 0: those wrapped entries (home past
  // their slot) hold the top keys, so they go last.
  std::size_t lead = 0;
  while (slots_[lead] != 0) ++lead;
  for (std::size_t i = 0; i < lead; ++i) {
    if (Home(slots_[i]) <= i) out.push_back(slots_[i]);
  }
  for (std::size_t i = lead; i <= mask_; ++i) {
    if (slots_[i] != 0) out.push_back(slots_[i]);
  }
  for (std::size_t i = 0; i < lead; ++i) {
    if (Home(slots_[i]) > i) out.push_back(slots_[i]);
  }
  std::fill(slots_.begin(), slots_.end(), 0);
  has_zero_ = false;
  size_ = 0;
  // Insertion fix-up: an entry is out of order only against entries of its
  // own cluster, and clusters are short at half load.
  for (std::size_t i = 1; i < out.size(); ++i) {
    const Fingerprint key = out[i];
    std::size_t j = i;
    for (; j > 0 && out[j - 1] > key; --j) out[j] = out[j - 1];
    out[j] = key;
  }
}

void HotFingerprintTable::Rehash(std::size_t capacity) {
  if (capacity / 8 * 7 > ceiling_) {  // the table's last size: room for 2x
    capacity = std::max(capacity, std::bit_ceil(2 * ceiling_));
  }
  std::vector<Fingerprint> old = std::move(slots_);
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  for (const Fingerprint key : old) {
    if (key != 0) Place(key);
  }
}

bool BlockedBloom::Grow(std::size_t n) {
  const std::size_t blocks = std::max<std::size_t>((n * 12 + 511) / 512, 1);
  const int block_bits = std::bit_width(blocks - 1);
  if (block_bits <= block_bits_) return false;
  words_ = {};
  words_.assign(std::size_t{8} << block_bits, 0);
  block_bits_ = block_bits;
  return true;
}

SortedRun::SortedRun(std::vector<Fingerprint> keys,
                     const std::string& spill_dir,
                     std::uint64_t& spilled_bytes)
    : mem_(std::move(keys)), keys_(mem_) {
  if (spill_dir.empty() || mem_.empty()) return;
  // Raw little-endian u64s in a fresh file, mapped back read-only.
  static std::atomic<std::uint64_t> spill_seq{0};
  std::string path =
      spill_dir + "/run-" + std::to_string(::getpid()) + "-" +
      std::to_string(spill_seq.fetch_add(1, std::memory_order_relaxed)) +
      ".fps";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) return;
  const char* data = reinterpret_cast<const char*>(mem_.data());
  const std::size_t bytes = keys_.size_bytes();
  std::size_t off = 0;
  while (off < bytes) {
    const ssize_t n = ::write(fd, data + off, bytes - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  void* map = off == bytes
                  ? ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0)
                  : MAP_FAILED;
  ::close(fd);
  if (map == MAP_FAILED) {
    ::unlink(path.c_str());
    return;
  }
  keys_ = {static_cast<const Fingerprint*>(map), mem_.size()};
  path_ = std::move(path);
  spilled_bytes += bytes;
  mem_ = {};
}

SortedRun::~SortedRun() {
  if (Spilled()) {
    ::munmap(const_cast<Fingerprint*>(keys_.data()), keys_.size_bytes());
    ::unlink(path_.c_str());
  }
}

}  // namespace detail

TieredFingerprintSet::TieredFingerprintSet(const TieredOptions& options)
    : options_(options), hot_(std::max<std::size_t>(options.hot_entries, 1)) {
  if (options_.hot_entries == 0) options_.hot_entries = 1;
}

bool TieredFingerprintSet::RunsContain(Fingerprint key) const noexcept {
  return std::any_of(runs_.rbegin(), runs_.rend(), [key](const auto& run) {
    return run->Contains(key);
  });
}

bool TieredFingerprintSet::Insert(Fingerprint fp) {
  const Fingerprint key = KeyOf(fp);
  if (hot_.Contains(key)) {
    ++stats_.hot_hits;
    return false;
  }
  if (run_entries_ != 0 && bloom_.MayContain(key)) {
    ++stats_.run_probes;
    if (RunsContain(key)) {
      ++stats_.bloom_true_positives;
      return false;
    }
    ++stats_.bloom_false_positives;
  }
  // Novel. Frozen semantics mirror FingerprintSet: at the total budget the
  // state is reported novel but not recorded.
  if (Size() >= options_.max_entries) return true;
  hot_.Insert(key);
  if (hot_.Size() >= options_.hot_entries) Compact();
  return true;
}

bool TieredFingerprintSet::Contains(Fingerprint fp) const noexcept {
  const Fingerprint key = KeyOf(fp);
  return hot_.Contains(key) || (bloom_.MayContain(key) && RunsContain(key));
}

void TieredFingerprintSet::Compact() {
  std::vector<Fingerprint> keys;
  hot_.DrainSorted(keys);
  // Hot entries were checked against every run on insert, so runs stay
  // mutually disjoint and no dedup across runs is needed here.
  run_entries_ += keys.size();
  runs_.push_back(std::make_unique<detail::SortedRun>(
      std::move(keys), options_.spill_dir, stats_.spilled_bytes));
  ++stats_.compactions;

  // The filter covers every run: rebuilt from the runs when the back level
  // outgrows it, else given just the new run.
  const std::size_t fresh = bloom_.Grow(run_entries_) ? 0 : runs_.size() - 1;
  for (std::size_t r = fresh; r < runs_.size(); ++r) {
    for (const Fingerprint key : runs_[r]->Keys()) bloom_.Add(key);
  }

  if (runs_.size() >= kMaxRuns) MergeNewestRuns();
}

void TieredFingerprintSet::MergeNewestRuns() {
  // Size-tiered suffix: the newest run, then each older run while it holds
  // at most twice the keys taken so far.
  std::size_t first = runs_.size() - 1;
  std::size_t total = runs_[first]->Keys().size();
  while (first > 0 && runs_[first - 1]->Keys().size() <= 2 * total) {
    total += runs_[--first]->Keys().size();
  }
  if (first + 1 == runs_.size()) return;
  // Newest (smallest) first, each run merged from the back into the space
  // behind the keys merged so far: one allocation, touched only as it
  // fills, and each input freed (a spilled one unlinked) once merged. Runs
  // are disjoint, so this is a pure merge of sorted sequences.
  std::vector<Fingerprint> merged;
  merged.reserve(total);
  while (runs_.size() > first) {
    const std::span<const Fingerprint> in = runs_.back()->Keys();
    std::size_t a = merged.size();
    std::size_t b = in.size();
    merged.resize(a + b);
    for (std::size_t out = merged.size(); b > 0;) {
      merged[--out] = a > 0 && merged[a - 1] > in[b - 1] ? merged[--a]
                                                        : in[--b];
    }
    runs_.pop_back();
  }
  runs_.push_back(std::make_unique<detail::SortedRun>(
      std::move(merged), options_.spill_dir, stats_.spilled_bytes));
  ++stats_.merges;
  stats_.merged_entries += total;
}

std::vector<std::size_t> TieredFingerprintSet::RunSizes() const {
  std::vector<std::size_t> sizes;
  for (const auto& run : runs_) sizes.push_back(run->Keys().size());
  return sizes;
}

VisitedStats TieredFingerprintSet::Stats() const {
  VisitedStats out = stats_;
  out.hot_entries = hot_.Size();
  out.run_entries = run_entries_;
  out.runs = runs_.size();
  out.spilled_runs = std::count_if(runs_.begin(), runs_.end(),
                                   [](const auto& r) { return r->Spilled(); });
  return out;
}

}  // namespace systest
