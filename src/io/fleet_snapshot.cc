#include "io/fleet_snapshot.h"

#include <fstream>
#include <string_view>

#include "common/binary.h"

namespace rl4oasd::io {

Status ReadFleetSnapshotHeader(BinaryReader* r, FleetSnapshotHeader* header) {
  char magic[4];
  RL4_RETURN_NOT_OK(r->ReadBytes(magic, 4));
  if (std::string_view(magic, 4) !=
      std::string_view(kFleetSnapshotMagic, 4)) {
    return Status::IOError("not a fleet snapshot (bad magic)");
  }
  uint32_t version;
  RL4_RETURN_NOT_OK(r->ReadU32(&version));
  if (version != kFleetSnapshotVersion) {
    return Status::IOError(
        "unsupported fleet snapshot version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kFleetSnapshotVersion) + ")");
  }
  RL4_RETURN_NOT_OK(r->ReadU64(&header->model_fingerprint));
  RL4_RETURN_NOT_OK(r->ReadString(&header->user_meta));
  for (int64_t& c : header->counters) RL4_RETURN_NOT_OK(r->ReadI64(&c));
  return Status::OK();
}

Status ReadFleetSnapshotTripCount(BinaryReader* r, uint64_t* num_trips) {
  RL4_RETURN_NOT_OK(r->ReadU64(num_trips));
  // Minimum record: i64 vehicle (8) + f64 last_update (8) + u32 session
  // blob length (4) + u32 guard blob length (4). Division avoids
  // overflowing the product for lying counts.
  if (*num_trips > r->remaining() / 24) {
    return Status::OutOfRange("trip count exceeds remaining payload");
  }
  return Status::OK();
}

Result<FleetSnapshotInfo> DescribeFleetSnapshot(const std::string& path) {
  RL4_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::OpenFile(path));
  FleetSnapshotInfo info;
  RL4_RETURN_NOT_OK(ReadFleetSnapshotHeader(&r, &info));
  info.version = kFleetSnapshotVersion;

  uint64_t num_trips;
  RL4_RETURN_NOT_OK(ReadFleetSnapshotTripCount(&r, &num_trips));
  info.trips.reserve(num_trips);
  for (uint64_t i = 0; i < num_trips; ++i) {
    FleetSnapshotTrip trip;
    RL4_RETURN_NOT_OK(r.ReadI64(&trip.vehicle_id));
    RL4_RETURN_NOT_OK(r.ReadF64(&trip.last_update));
    std::string blob;
    RL4_RETURN_NOT_OK(r.ReadString(&blob));
    // Skim the session record's fixed prefix (see Session::ExportState):
    // SD pair, start time, finished flag, label count.
    BinaryReader session(std::move(blob));
    int32_t sd_source, sd_dest;
    uint8_t finished;
    uint32_t num_labels;
    RL4_RETURN_NOT_OK(session.ReadI32(&sd_source));
    RL4_RETURN_NOT_OK(session.ReadI32(&sd_dest));
    RL4_RETURN_NOT_OK(session.ReadF64(&trip.start_time));
    RL4_RETURN_NOT_OK(session.ReadU8(&finished));
    RL4_RETURN_NOT_OK(session.ReadU32(&num_labels));
    if (session.remaining() < num_labels) {
      return Status::OutOfRange("label count exceeds trip record");
    }
    trip.points_fed = num_labels;
    info.total_points += num_labels;
    // Skim the guard record's trailing quarantine flag (the layout is owned
    // by serve::IngestGuard::State::ExportState: two f64s, two i32s, four
    // u32s, then has_arrival and quarantined as u8s — 42 bytes).
    std::string guard_blob;
    RL4_RETURN_NOT_OK(r.ReadString(&guard_blob));
    BinaryReader guard(std::move(guard_blob));
    double f64_field;
    int32_t i32_field;
    uint32_t u32_field;
    for (int j = 0; j < 2; ++j) RL4_RETURN_NOT_OK(guard.ReadF64(&f64_field));
    for (int j = 0; j < 2; ++j) RL4_RETURN_NOT_OK(guard.ReadI32(&i32_field));
    for (int j = 0; j < 4; ++j) RL4_RETURN_NOT_OK(guard.ReadU32(&u32_field));
    uint8_t has_arrival;
    uint8_t quarantined;
    RL4_RETURN_NOT_OK(guard.ReadU8(&has_arrival));
    RL4_RETURN_NOT_OK(guard.ReadU8(&quarantined));
    if (!guard.AtEnd()) {
      return Status::IOError("trailing bytes in trip guard record");
    }
    if (quarantined > 1) {
      return Status::InvalidArgument("guard quarantine flag out of range");
    }
    trip.quarantined = quarantined != 0;
    if (trip.quarantined) ++info.quarantined_trips;
    info.trips.push_back(trip);
  }
  if (!r.AtEnd()) {
    return Status::IOError("trailing bytes after fleet snapshot payload");
  }
  return info;
}

bool LooksLikeFleetSnapshot(const std::string& path) {
  // Dispatch needs only the magic: peek 4 bytes instead of slurping and
  // CRC-verifying the whole file (the describe path that follows does the
  // full verified read anyway).
  std::ifstream f(path, std::ios::binary);
  char magic[4];
  if (!f.read(magic, 4)) return false;
  return std::string_view(magic, 4) ==
         std::string_view(kFleetSnapshotMagic, 4);
}

}  // namespace rl4oasd::io
