// Test oracle: the original capped flat visited set. TieredFingerprintSet
// (core/fingerprint.h) must give the same Insert() verdict for every
// fingerprint (tests/core_visited_tiered_test.cc).
#pragma once

#include <cstddef>
#include <unordered_set>

#include "core/fingerprint.h"

namespace systest {

/// Single-threaded visited set with a hard entry cap (TestConfig::max_visited)
/// so stateful runs have bounded memory. Once full, the set is frozen:
/// lookups still report known states as hits, but unseen states are reported
/// novel without being recorded — pruning degrades gracefully instead of
/// growing without bound or (worse) pruning executions on states it never
/// actually saw. The engines use TieredFingerprintSet; this flat set is the
/// semantic reference the tiered set is tested against.
class FingerprintSet final : public VisitedSet {
 public:
  explicit FingerprintSet(std::size_t max_entries) : max_entries_(max_entries) {}

  bool Insert(Fingerprint fp) override {
    if (set_.size() >= max_entries_) {
      return set_.find(fp) == set_.end();
    }
    return set_.insert(fp).second;
  }

  [[nodiscard]] std::size_t Size() const override { return set_.size(); }

 private:
  std::size_t max_entries_;
  std::unordered_set<Fingerprint> set_;
};

}  // namespace systest
