// Wall-clock cap for campaign tests, a hang guard only: their verdicts are
// budgeted in executions (deterministic given the seed), and the cap sits
// more than 10x above the slowest one's Release runtime, so sanitizer and
// Debug builds reach the same verdicts as Release.
#pragma once

namespace systest::testing {
inline constexpr double kHangGuardSeconds = 600;
}  // namespace systest::testing
