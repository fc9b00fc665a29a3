// SysTest public API layer.
//
// StrategyRegistry: the single construction site for scheduling strategies,
// keyed by string name, shared by both engines and the CLI. It makes
// strategies pluggable: a third-party strategy registered here
// (via SYSTEST_REGISTER_STRATEGY or Register()) is immediately usable from
// TestConfig::strategy, portfolio plans and `systest_run --strategy`.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/strategy.h"

namespace systest {

/// Process-wide registry of named scheduling-strategy factories. The four
/// built-ins (random, pct, round-robin, delay-bounded) are registered on
/// first use; additional strategies can self-register at static-init time.
/// Thread-safe: Create() is called concurrently by exploration workers.
class StrategyRegistry {
 public:
  /// Builds a fresh strategy instance. `budget` is the PCT priority-change /
  /// delay budget; strategies that do not use one ignore it.
  using Factory = std::function<std::unique_ptr<SchedulingStrategy>(
      std::uint64_t seed, int budget)>;

  struct Entry {
    std::string name;
    std::string description;
    Factory factory;
  };

  static StrategyRegistry& Instance();

  /// Registers a strategy factory. Throws std::logic_error on an empty name,
  /// a name containing '(' (reserved for the budget suffix), or a duplicate.
  /// Returns true so the SYSTEST_REGISTER_STRATEGY macro can bind it to a
  /// static initializer.
  bool Register(std::string name, std::string description, Factory factory);

  /// Constructs the named strategy. `spec` is either a bare registered name
  /// ("pct") or a name with a budget suffix ("pct(5)") which overrides
  /// `budget`. Throws std::invalid_argument for unknown names, listing every
  /// registered strategy in the message.
  [[nodiscard]] std::unique_ptr<SchedulingStrategy> Create(
      const std::string& spec, std::uint64_t seed, int budget) const;

  [[nodiscard]] bool Has(std::string_view name) const;

  /// All registered entries, sorted by name.
  [[nodiscard]] std::vector<Entry> All() const;

  /// Sorted names, e.g. for error messages and `--list`.
  [[nodiscard]] std::vector<std::string> Names() const;

  /// Comma-separated sorted names ("delay-bounded, pct, random, ...").
  [[nodiscard]] std::string NamesLine() const;

 private:
  StrategyRegistry();  // registers the built-ins

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace systest

/// Registers a strategy at static-initialization time:
///
///   SYSTEST_REGISTER_STRATEGY(my_strategy, "my-strategy",
///                             "what it explores",
///                             [](std::uint64_t seed, int budget) {
///                               return std::make_unique<MyStrategy>(seed);
///                             })
#define SYSTEST_REGISTER_STRATEGY(ident, name, description, factory)       \
  static const bool systest_strategy_registered_##ident =                  \
      ::systest::StrategyRegistry::Instance().Register(name, description,  \
                                                       factory)
