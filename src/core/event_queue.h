// SysTest systematic-testing framework.
//
// EventQueue: FIFO of owned events on one contiguous buffer. Machine inboxes
// are short (usually 0–4 events) and cycle push/pop once per scheduling
// step, which makes std::deque's block bookkeeping pure overhead; a vector
// with a head cursor keeps the hot path at two pointer ops and compacts the
// consumed prefix amortized-O(1).
//
// In a stateful runtime the queue also keeps a rolling digest of its type
// ids (core/fingerprint.h), so a machine's fingerprint refresh costs O(1)
// in its inbox length instead of a walk over every queued event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/event.h"
#include "core/fingerprint.h"
#include "core/rng.h"

namespace systest::detail {

class EventQueue {
 public:
  [[nodiscard]] bool Empty() const noexcept { return head_ == buf_.size(); }
  [[nodiscard]] std::size_t Size() const noexcept {
    return buf_.size() - head_;
  }

  void PushBack(std::unique_ptr<const Event> ev) {
    if (tracking_) {
      digest_ = AddMod61(MulMod61(digest_, kBase), Term(ev->TypeId()));
      pow_size_ = MulMod61(pow_size_, kBase);
    }
    buf_.push_back(std::move(ev));
  }

  std::unique_ptr<const Event> PopFront() {
    std::unique_ptr<const Event> ev = std::move(buf_[head_]);
    ++head_;
    if (tracking_) {
      // The front term carried B^(n-1), which is B^n / B.
      pow_size_ = MulMod61(pow_size_, kBaseInverse);
      digest_ = SubMod61(digest_, MulMod61(Term(ev->TypeId()), pow_size_));
    }
    MaybeCompact();
    return ev;
  }

  /// Removes and returns the element at `index` (0 = front), preserving the
  /// order of the rest.
  std::unique_ptr<const Event> RemoveAt(std::size_t index) {
    if (index == 0) {
      return PopFront();
    }
    const auto it = buf_.begin() + static_cast<std::ptrdiff_t>(head_ + index);
    if (tracking_) {
      // digest = P + t * B^e + S, where t is the removed term, e the number
      // of events behind it, S their digest and P the part in front. Every
      // term of P loses one power of B: digest' = P / B + S. O(e): a
      // Receive match or defer skip almost always takes an event at or near
      // the back (vnext and samplerepl average e < 0.1 over queues of ~50).
      std::uint64_t behind = 0;
      std::uint64_t pow_behind = 1;
      for (auto rest = it + 1; rest != buf_.end(); ++rest) {
        behind = AddMod61(MulMod61(behind, kBase), Term((*rest)->TypeId()));
        pow_behind = MulMod61(pow_behind, kBase);
      }
      const std::uint64_t front = SubMod61(
          SubMod61(digest_, MulMod61(Term((*it)->TypeId()), pow_behind)),
          behind);
      digest_ = AddMod61(MulMod61(front, kBaseInverse), behind);
      pow_size_ = MulMod61(pow_size_, kBaseInverse);
    }
    std::unique_ptr<const Event> ev = std::move(*it);
    buf_.erase(it);
    return ev;
  }

  void Clear() {
    buf_.clear();
    head_ = 0;
    digest_ = 0;
    pow_size_ = 1;
  }

  /// Maintains the type digest incrementally from now on. A stateful Runtime
  /// turns this on for each machine it fingerprints; elsewhere the digest is
  /// computed on demand, so stateless runs pay nothing per push or pop.
  void TrackTypeDigest() {
    digest_ = RecomputeTypeDigest();
    pow_size_ = PowMod61(kBase, Size());
    tracking_ = true;
  }

  /// Polynomial digest of the queued type ids, front to back, mod 2^61 - 1
  /// (see core/fingerprint.h): the maintained value when tracking, else
  /// recomputed.
  [[nodiscard]] std::uint64_t TypeDigest() const noexcept {
    return tracking_ ? digest_ : RecomputeTypeDigest();
  }

  /// The same digest rebuilt from the live events, ignoring the maintained
  /// value — what cross-checks of the incremental digest compare against.
  [[nodiscard]] std::uint64_t RecomputeTypeDigest() const noexcept {
    std::uint64_t digest = 0;
    for (const auto& ev : *this) {
      digest = AddMod61(MulMod61(digest, kBase), Term(ev->TypeId()));
    }
    return digest;
  }

  /// This queue's contribution to a machine's state fingerprint: the length
  /// and the digest of the front-to-back sequence of queued event-type ids
  /// (payloads are a machine concern — see Machine::FingerprintPayload).
  /// `from_events` bypasses the maintained digest.
  void HashTypesInto(StateHasher& hasher, bool from_events = false) const {
    hasher.Mix(Size());
    hasher.Mix(from_events ? RecomputeTypeDigest() : TypeDigest());
  }

  // Iteration over the live events, front to back.
  [[nodiscard]] const std::unique_ptr<const Event>* begin() const noexcept {
    return buf_.data() + head_;
  }
  [[nodiscard]] const std::unique_ptr<const Event>* end() const noexcept {
    return buf_.data() + buf_.size();
  }

 private:
  void MaybeCompact() {
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 32 && head_ * 2 >= buf_.size()) {
      // The consumed prefix dominates the buffer: drop it so a steady
      // producer/consumer pattern cannot grow the buffer without bound.
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Base of the polynomial: a fixed residue well away from 0 and 1.
  static constexpr std::uint64_t kBase = 0x1d8e4e27c47d124full;
  static constexpr std::uint64_t kBaseInverse = PowMod61(kBase, kMod61 - 2);
  static_assert(kBase < kMod61 && MulMod61(kBase, kBaseInverse) == 1);

  /// A type id's coefficient: SplitMix64-scrambled so that dense, small ids
  /// spread over the field.
  [[nodiscard]] static std::uint64_t Term(EventTypeId type) noexcept {
    std::uint64_t state = type;
    return Reduce61(SplitMix64(state));
  }

  std::vector<std::unique_ptr<const Event>> buf_;
  std::size_t head_ = 0;
  bool tracking_ = false;
  std::uint64_t digest_ = 0;    ///< sum of Term(type_i) * B^(n-1-i)
  std::uint64_t pow_size_ = 1;  ///< B^n for the n live events
};

}  // namespace systest::detail
