// EventQueue type-digest tests: the rolling digest a stateful runtime keeps
// per inbox (core/event_queue.h, core/fingerprint.h) must equal a digest
// computed from scratch after every push, pop, middle removal and clear; it
// must depend only on the live sequence, not on the history that produced
// it; and its modulus must keep Thue-Morse queues apart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/event.h"
#include "core/event_queue.h"
#include "core/rng.h"

namespace {

using systest::detail::EventQueue;

struct KindA final : systest::Event {};
struct KindB final : systest::Event {};
struct KindC final : systest::Event {};
struct KindD final : systest::Event {};

std::unique_ptr<const systest::Event> MakeKind(int kind) {
  switch (kind) {
    case 0:
      return systest::MakeEvent<KindA>();
    case 1:
      return systest::MakeEvent<KindB>();
    case 2:
      return systest::MakeEvent<KindC>();
    default:
      return systest::MakeEvent<KindD>();
  }
}

systest::EventTypeId TypeOf(int kind) {
  switch (kind) {
    case 0:
      return systest::EventTypeIdOf<KindA>();
    case 1:
      return systest::EventTypeIdOf<KindB>();
    case 2:
      return systest::EventTypeIdOf<KindC>();
    default:
      return systest::EventTypeIdOf<KindD>();
  }
}

/// A tracking queue freshly filled with `kinds`: the digest with no pop or
/// removal in its history.
std::uint64_t FreshDigest(const std::vector<int>& kinds) {
  EventQueue fresh;
  fresh.TrackTypeDigest();
  for (const int kind : kinds) fresh.PushBack(MakeKind(kind));
  return fresh.TypeDigest();
}

std::vector<int> ThueMorse(std::size_t length, bool complement) {
  std::vector<int> kinds(length);
  for (std::size_t i = 0; i < length; ++i) {
    kinds[i] = (__builtin_popcountll(i) & 1) ^ (complement ? 1 : 0);
  }
  return kinds;
}

TEST(TypeDigest, MatchesFromScratchAfterEveryRandomOperation) {
  EventQueue q;
  q.TrackTypeDigest();
  std::deque<int> model;
  systest::Xoshiro256 rng(13);
  std::size_t max_size = 0;
  std::size_t middle_removals = 0;
  for (int op = 0; op < 20'000; ++op) {
    // Grow towards ~150 events in the first half of each 4000-op cycle and
    // drain in the second, so the head cursor crosses the 32-entry
    // compaction threshold many times with the queue non-empty.
    const bool growing = (op / 2000) % 2 == 0;
    const std::uint64_t roll = rng.NextBelow(100);
    if (roll == 0) {
      q.Clear();
      model.clear();
    } else if (model.empty() || roll < (growing ? 60u : 30u)) {
      const int kind = static_cast<int>(rng.NextBelow(4));
      q.PushBack(MakeKind(kind));
      model.push_back(kind);
    } else if (roll < 80) {
      ASSERT_EQ(q.PopFront()->TypeId(), TypeOf(model.front()));
      model.pop_front();
    } else {
      const std::size_t index = rng.NextBelow(model.size());
      middle_removals += index > 0 ? 1 : 0;
      ASSERT_EQ(q.RemoveAt(index)->TypeId(), TypeOf(model[index]));
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(index));
    }
    max_size = std::max(max_size, model.size());
    ASSERT_EQ(q.Size(), model.size());
    ASSERT_EQ(q.TypeDigest(), q.RecomputeTypeDigest()) << "after op " << op;
    ASSERT_EQ(q.TypeDigest(),
              FreshDigest(std::vector<int>(model.begin(), model.end())))
        << "after op " << op;
  }
  EXPECT_GE(max_size, 100u);
  EXPECT_GE(middle_removals, 1000u);
}

TEST(TypeDigest, DependsOnlyOnTheLiveSequence) {
  const std::vector<int> live = {2, 0, 0, 3, 1, 2, 1, 1, 0, 3};

  // History 1: push junk, drain past the compaction threshold, then push.
  EventQueue a;
  a.TrackTypeDigest();
  for (int i = 0; i < 70; ++i) a.PushBack(MakeKind(i % 4));
  for (int i = 0; i < 70; ++i) (void)a.PopFront();
  for (const int kind : live) a.PushBack(MakeKind(kind));

  // History 2: interleave the live events with junk that is removed from
  // the middle and the front.
  EventQueue b;
  b.TrackTypeDigest();
  b.PushBack(MakeKind(3));
  for (const int kind : live) {
    b.PushBack(MakeKind(kind));
    b.PushBack(MakeKind(1));
    (void)b.RemoveAt(b.Size() - 1);
  }
  b.PushBack(MakeKind(0));
  (void)b.PopFront();
  (void)b.RemoveAt(b.Size() - 1);

  // History 3: tracking switched on only once the live sequence is queued.
  EventQueue c;
  for (const int kind : live) c.PushBack(MakeKind(kind));
  const std::uint64_t untracked = c.TypeDigest();
  c.TrackTypeDigest();

  const std::uint64_t expected = FreshDigest(live);
  EXPECT_EQ(a.TypeDigest(), expected);
  EXPECT_EQ(b.TypeDigest(), expected);
  EXPECT_EQ(c.TypeDigest(), expected);
  EXPECT_EQ(untracked, expected);

  // Order matters: the same multiset in another order is another queue.
  std::vector<int> swapped = live;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(FreshDigest(swapped), expected);
}

// A polynomial digest over Z/2^64 (the tempting "wrap-around" choice) with
// the same shape: Horner over the live terms with an odd base.
std::uint64_t Mod64Digest(const std::vector<int>& kinds) {
  std::uint64_t seed = 0;
  const std::uint64_t terms[2] = {systest::SplitMix64(seed),
                                  systest::SplitMix64(seed)};
  std::uint64_t digest = 0;
  for (const int kind : kinds) {
    digest = digest * 0x9e3779b97f4a7c15ull + terms[kind];
  }
  return digest;
}

TEST(TypeDigest, ThueMorseQueuesStayDistinct) {
  for (const std::size_t length : {64u, 128u, 256u, 1024u, 4096u}) {
    const std::vector<int> sequence = ThueMorse(length, false);
    const std::vector<int> complement = ThueMorse(length, true);
    EXPECT_NE(FreshDigest(sequence), FreshDigest(complement))
        << "Thue-Morse queues of length " << length << " collide";
  }
  // Why the modulus is prime: from length 1024 every odd base collides
  // mod 2^64 on this pair (see core/fingerprint.h).
  EXPECT_EQ(Mod64Digest(ThueMorse(1024, false)),
            Mod64Digest(ThueMorse(1024, true)));
}

}  // namespace
