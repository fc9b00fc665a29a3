// Tests for the shared machine-declaration registry, event-type interning
// and the event queue — the hot-path machinery behind the runtime overhaul.
#include <gtest/gtest.h>

#include <typeindex>

#include "core/event_queue.h"
#include "core/systest.h"
#include "fabric/pipeline.h"

namespace {

using systest::Event;
using systest::Machine;
using systest::MachineId;
using systest::Monitor;

struct RegProbe final : Event {};
struct RegOther final : Event {};

class RegMachineA final : public Machine {
 public:
  RegMachineA() {
    State("One").On<RegProbe>(&RegMachineA::OnProbe).Ignore<RegOther>();
    State("Two").On<RegProbe>(&RegMachineA::OnProbe);
    SetStart("One");
  }

 private:
  void OnProbe(const RegProbe&) {}
};

class RegMachineB final : public Machine {
 public:
  RegMachineB() {
    State("Only").On<RegProbe>(&RegMachineB::OnProbe);
    SetStart("Only");
  }

 private:
  void OnProbe(const RegProbe&) {}
};

TEST(DeclRegistry, TwoRuntimesInDifferentOrdersShareOneDeclPerType) {
  systest::RoundRobinStrategy s1, s2;
  s1.PrepareIteration(0, 100);
  s2.PrepareIteration(0, 100);
  systest::Runtime rt1(s1), rt2(s2);

  // Opposite creation orders across the two runtimes.
  const MachineId a1 = rt1.CreateMachine<RegMachineA>("A");
  const MachineId b1 = rt1.CreateMachine<RegMachineB>("B");
  const MachineId b2 = rt2.CreateMachine<RegMachineB>("B");
  const MachineId a2 = rt2.CreateMachine<RegMachineA>("A");

  const auto* decl_a1 = rt1.FindMachine(a1)->StateDecls();
  const auto* decl_a2 = rt2.FindMachine(a2)->StateDecls();
  const auto* decl_b1 = rt1.FindMachine(b1)->StateDecls();
  const auto* decl_b2 = rt2.FindMachine(b2)->StateDecls();

  ASSERT_NE(decl_a1, nullptr);
  EXPECT_EQ(decl_a1, decl_a2);  // one decl per type, process-wide
  EXPECT_EQ(decl_b1, decl_b2);
  EXPECT_NE(decl_a1, decl_b1);  // and per TYPE, not global

  // The registry hands out exactly the same pointer.
  EXPECT_EQ(systest::detail::DeclRegistry::FindMachineDecl(
                std::type_index(typeid(RegMachineA))),
            decl_a1);

  // Compiled content: states are name-sorted, tables populated.
  EXPECT_EQ(decl_a1->states.size(), 2u);
  EXPECT_EQ(decl_a1->states[0].name, "One");
  EXPECT_EQ(decl_a1->states[1].name, "Two");
  EXPECT_TRUE(
      decl_a1->states[0].ignores.Contains(systest::EventTypeIdOf<RegOther>()));
  EXPECT_GE(decl_a1->states[0].dispatch.size(), 1u);
}

TEST(DeclRegistry, AggregatorVariantsGetTwoRegistryDecls) {
  // fabric's guarded and unguarded aggregators declare different state
  // graphs, so they are two types with one registry decl each.
  systest::RoundRobinStrategy strategy;
  strategy.PrepareIteration(0, 100);
  systest::Runtime rt(strategy);
  const MachineId driver = rt.CreateMachine<RegMachineB>("driver");
  const MachineId guarded =
      rt.CreateMachine<fabric::AggregatorMachine>("guarded", driver, 1);
  const MachineId unguarded = rt.CreateMachine<
      fabric::UnguardedAggregatorMachine>("unguarded", driver, 1);

  const auto* guarded_decl = rt.FindMachine(guarded)->StateDecls();
  const auto* unguarded_decl = rt.FindMachine(unguarded)->StateDecls();
  ASSERT_NE(guarded_decl, nullptr);
  ASSERT_NE(unguarded_decl, nullptr);
  EXPECT_NE(guarded_decl, unguarded_decl);
  EXPECT_EQ(systest::detail::DeclRegistry::FindMachineDecl(
                std::type_index(typeid(fabric::AggregatorMachine))),
            guarded_decl);
  EXPECT_EQ(systest::detail::DeclRegistry::FindMachineDecl(
                std::type_index(typeid(fabric::UnguardedAggregatorMachine))),
            unguarded_decl);
  ASSERT_EQ(guarded_decl->states.size(), 2u);
  EXPECT_EQ(guarded_decl->states[0].name, "Configured");
  EXPECT_EQ(guarded_decl->states[1].name, "Unconfigured");
  ASSERT_EQ(unguarded_decl->states.size(), 1u);
  EXPECT_EQ(unguarded_decl->states[0].name, "Running");
}

TEST(DeclRegistry, SecondInstanceSkipsDeclarationBuildButBehavesTheSame) {
  systest::RoundRobinStrategy strategy;
  strategy.PrepareIteration(0, 100);
  systest::Runtime rt(strategy);
  const MachineId first = rt.CreateMachine<RegMachineA>("first");
  const std::size_t count_after_first =
      systest::detail::DeclRegistry::MachineDeclCount();
  const MachineId second = rt.CreateMachine<RegMachineA>("second");
  EXPECT_EQ(systest::detail::DeclRegistry::MachineDeclCount(),
            count_after_first);

  rt.SendEvent<RegProbe>(first);
  rt.SendEvent<RegProbe>(second);
  while (rt.Step()) {
  }
  EXPECT_EQ(rt.FindMachine(second)->CurrentStateName(), "One");
}

TEST(EventTypeIds, StampedAndInternedConsistently) {
  const auto ev = systest::MakeEvent<RegProbe>();
  EXPECT_EQ(ev->TypeId(), systest::EventTypeIdOf<RegProbe>());
  EXPECT_NE(systest::EventTypeIdOf<RegProbe>(),
            systest::EventTypeIdOf<RegOther>());
  EXPECT_NE(systest::EventTypeIdOf<RegProbe>(), systest::kInvalidEventTypeId);

  // Hand-constructed events (no MakeEvent) intern lazily to the same id.
  const RegOther other;
  EXPECT_EQ(other.TypeId(), systest::EventTypeIdOf<RegOther>());
}

TEST(EventQueue, FifoRemoveAtAndCompaction) {
  systest::detail::EventQueue q;
  EXPECT_TRUE(q.Empty());
  for (int i = 0; i < 100; ++i) {
    q.PushBack(systest::MakeEvent<RegProbe>());
    q.PushBack(systest::MakeEvent<RegOther>());
    EXPECT_EQ(q.Size(), 2u);
    // Remove the second (out-of-order receive pattern), then the first.
    auto second = q.RemoveAt(1);
    EXPECT_EQ(second->TypeId(), systest::EventTypeIdOf<RegOther>());
    auto front = q.PopFront();
    EXPECT_EQ(front->TypeId(), systest::EventTypeIdOf<RegProbe>());
    EXPECT_TRUE(q.Empty());
  }
  // Steady producer/consumer with queue never draining: buffer must not grow
  // without bound (compaction), and order must hold.
  q.PushBack(systest::MakeEvent<RegProbe>());
  for (int i = 0; i < 10'000; ++i) {
    q.PushBack(systest::MakeEvent<RegOther>());
    (void)q.PopFront();
  }
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PopFront()->TypeId(), systest::EventTypeIdOf<RegOther>());
}

}  // namespace
