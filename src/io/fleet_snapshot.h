// The durable fleet snapshot format: every piece of live serving state of a
// serve::FleetMonitor — per-trip detection sessions (LSTM hidden states,
// label/edge history, Delayed-Labeling windows, undrained runs, RNG stream
// positions), service counters, and an application metadata string — in one
// CRC32-protected file. Layout (inside a BinaryWriter payload):
//
//   magic "RLFS" | u32 format version | u64 model-bundle fingerprint |
//   user metadata string | 17 x i64 service counters (FleetCounter order) |
//   u64 trip count | per trip: i64 vehicle_id | f64 last_update |
//                              length-prefixed session record |
//                              length-prefixed ingest-guard record
//
// Version history: v1 carried 5 service counters and no guard record;
// v2 (current) appends the 12 ingest-guard counters after the original 5
// and a per-trip serve::IngestGuard::State blob after the session record,
// so quarantine state round-trips through restore. Older versions are
// rejected with a descriptive error (snapshots are ephemeral hand-off
// state, not archives — see serve::FleetMonitor::Restore).
//
// The session record is written by core::OnlineDetector::Session::ExportState
// and is opaque at this level; length-prefixing lets tooling (oasd_inspect)
// describe a snapshot without reconstructing the fleet. The fingerprint is
// io::ModelFingerprint of the serving model at snapshot time: restore
// refuses a snapshot stamped by a different model, because replaying hidden
// states against other weights would silently diverge instead of honoring
// the restore-equivalence contract (see serve::FleetMonitor::Snapshot).
//
// Writing and restoring live in serve::FleetMonitor (Snapshot/Restore);
// this header owns the format constants and the model-free inspector.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary.h"
#include "common/status.h"

namespace rl4oasd::io {

inline constexpr char kFleetSnapshotMagic[4] = {'R', 'L', 'F', 'S'};
inline constexpr uint32_t kFleetSnapshotVersion = 2;

/// The service counters a snapshot carries, in file order. The one list
/// every counter walker follows: serve::FleetMonitor's per-shard counters,
/// Stats(), DumpMetrics(), Snapshot() and Restore(), the header reader and
/// oasd_inspect. serve::FleetStats documents what each one counts.
enum class FleetCounter : uint8_t {
  kTripsStarted,
  kTripsFinished,
  kPointsProcessed,
  kAlertsEmitted,
  kTripsEvicted,
  // Ingest-guard counters (format v2).
  kGuardDuplicates,
  kGuardOutOfOrder,
  kGuardClockSkew,
  kGuardDropoutGaps,
  kGuardTeleports,
  kGuardInvalidEdges,
  kPointsRepaired,
  kPointsRejected,
  kPointsQuarantineDropped,
  kTripsQuarantined,
  kTripsRecovered,
  kQuarantineEvictions,
};
inline constexpr size_t kNumFleetCounters =
    static_cast<size_t>(FleetCounter::kQuarantineEvictions) + 1;

/// The largest service counter Restore accepts; no sum of them overflows.
inline constexpr int64_t kMaxFleetCounter = int64_t{1} << 60;

/// Each counter's metrics name, indexed by FleetCounter.
inline constexpr std::string_view kFleetCounterNames[] = {
    "fleet_trips_started",
    "fleet_trips_finished",
    "fleet_points_processed",
    "fleet_alerts_emitted",
    "fleet_trips_evicted",
    "guard_duplicates",
    "guard_out_of_order",
    "guard_clock_skew",
    "guard_dropout_gaps",
    "guard_teleports",
    "guard_invalid_edges",
    "guard_points_repaired",
    "guard_points_rejected",
    "guard_points_quarantine_dropped",
    "guard_trips_quarantined",
    "guard_trips_recovered",
    "guard_quarantine_evictions",
};
static_assert(std::size(kFleetCounterNames) == kNumFleetCounters);

/// The fixed header that precedes the trip array. One parser
/// (ReadFleetSnapshotHeader) serves both serve::FleetMonitor::Restore and
/// DescribeFleetSnapshot, so the layout lives in exactly one place.
struct FleetSnapshotHeader {
  uint64_t model_fingerprint = 0;
  std::string user_meta;
  /// Service counters at snapshot time, indexed by FleetCounter.
  std::array<int64_t, kNumFleetCounters> counters{};

  int64_t counter(FleetCounter c) const {
    return counters[static_cast<size_t>(c)];
  }
};

/// Per-trip header readable without the model or road network.
struct FleetSnapshotTrip {
  int64_t vehicle_id = 0;
  double last_update = 0.0;
  double start_time = 0.0;
  uint64_t points_fed = 0;  // labels recorded when the snapshot was taken
  /// The trip was quarantined by the ingest guard when the snapshot was
  /// taken (skimmed from the guard record's trailing flag).
  bool quarantined = false;
};

/// Snapshot metadata readable without reconstructing the fleet — backs the
/// oasd_inspect tool and CI triage: the header it was read from, then the
/// trips.
struct FleetSnapshotInfo : FleetSnapshotHeader {
  uint32_t version = 0;
  std::vector<FleetSnapshotTrip> trips;
  uint64_t total_points = 0;       // sum of points_fed over all live trips
  uint64_t quarantined_trips = 0;  // live trips snapshotted mid-quarantine
};

/// Reads magic, version, fingerprint, user metadata, and the service
/// counters from `r`, leaving it positioned at the trip count. Bad magic
/// and unknown versions return descriptive errors.
Status ReadFleetSnapshotHeader(BinaryReader* r, FleetSnapshotHeader* header);

/// Reads the trip count that follows the header, rejecting counts that
/// cannot fit in the remaining payload (each record is at least a vehicle
/// id, a timestamp, and an empty length-prefixed session blob) before any
/// caller reserves memory for them.
Status ReadFleetSnapshotTripCount(BinaryReader* r, uint64_t* num_trips);

/// Parses a snapshot's structure (CRC-verified) without a model: the trip
/// session records are skimmed for their headers, not reconstructed.
Result<FleetSnapshotInfo> DescribeFleetSnapshot(const std::string& path);

/// True when `path` starts with the fleet-snapshot magic — a cheap 4-byte
/// peek (no CRC verification) that lets tooling dispatch between bundle
/// kinds; the describe/restore path that follows does the full verified
/// read.
bool LooksLikeFleetSnapshot(const std::string& path);

}  // namespace rl4oasd::io
