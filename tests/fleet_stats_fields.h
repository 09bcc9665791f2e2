// The 17 service counters a fleet snapshot carries, listed as FleetStats
// fields independently of the serving code's own counter table, so tests
// can compare and render every one of them by name.
#pragma once

#include <cstdint>

#include <gtest/gtest.h>

#include "serve/fleet.h"

namespace rl4oasd::testing {

struct StatsField {
  const char* name;
  int64_t serve::FleetStats::*field;
};

inline constexpr StatsField kSnapshottedStats[] = {
    {"trips_started", &serve::FleetStats::trips_started},
    {"trips_finished", &serve::FleetStats::trips_finished},
    {"points_processed", &serve::FleetStats::points_processed},
    {"alerts_emitted", &serve::FleetStats::alerts_emitted},
    {"trips_evicted", &serve::FleetStats::trips_evicted},
    {"guard_duplicates", &serve::FleetStats::guard_duplicates},
    {"guard_out_of_order", &serve::FleetStats::guard_out_of_order},
    {"guard_clock_skew", &serve::FleetStats::guard_clock_skew},
    {"guard_dropout_gaps", &serve::FleetStats::guard_dropout_gaps},
    {"guard_teleports", &serve::FleetStats::guard_teleports},
    {"guard_invalid_edges", &serve::FleetStats::guard_invalid_edges},
    {"points_repaired", &serve::FleetStats::points_repaired},
    {"points_rejected", &serve::FleetStats::points_rejected},
    {"points_quarantine_dropped",
     &serve::FleetStats::points_quarantine_dropped},
    {"trips_quarantined", &serve::FleetStats::trips_quarantined},
    {"trips_recovered", &serve::FleetStats::trips_recovered},
    {"quarantine_evictions", &serve::FleetStats::quarantine_evictions},
};

/// Expects every snapshotted counter of `a` to equal the one of `b`.
inline void ExpectSnapshottedStatsEqual(const serve::FleetStats& a,
                                        const serve::FleetStats& b) {
  for (const StatsField& f : kSnapshottedStats) {
    EXPECT_EQ(a.*f.field, b.*f.field) << f.name;
  }
}

}  // namespace rl4oasd::testing
