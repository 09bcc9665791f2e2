// Self-batching shard ingest: bounded staging lanes plus worker threads
// that assemble FeedBatch waves adaptively under irregular arrivals.
//
// The synchronous FeedBatch path is fast only when the *caller* assembles a
// wide batch — but the paper's deployment receives one interleaved point at
// a time from the whole fleet. IngestPipeline closes that gap: Submit stages
// a point into its shard's lane (a small bounded deque) and returns; a lane
// worker drains whatever has accumulated into one FeedBatch call. Batches
// therefore form *by themselves* under load — while a worker is busy with
// one wave the next one accumulates behind it — and stay width-1 at low
// load, so latency is never traded away by a fixed batching delay.
//
// Flush policy: a lane is ripe as soon as it is non-empty — its worker
// drains it whenever the worker is free, with no timer and no width
// threshold. Callers that want every submitted point processed before
// reading results call FleetMonitor::Quiesce(), which waits until every
// lane is empty and every worker idle.
//
// Ordering: a vehicle always maps to the same lane (by shard index), the
// lane is FIFO, and FeedBatch preserves per-vehicle point order within one
// call, so per-vehicle order is exactly the Submit order. End-of-trip
// markers (SubmitEnd) ride the same lane, so a trip's end is processed after
// all its points.
//
// Backpressure: lanes are bounded (FleetConfig::ingest_queue_capacity).
// OverloadPolicy::kBlock makes Submit wait for space (lossless);
// OverloadPolicy::kShed makes Submit drop the point and count it
// (FleetStats::points_shed). End markers are lifecycle events and are never
// shed — they block for space under either policy.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/fleet.h"

namespace rl4oasd::serve {

/// Per-shard staging lanes + worker threads feeding one FleetMonitor.
/// Thread-safe; the destructor drains every lane, then joins.
class IngestPipeline {
 public:
  /// `monitor` must outlive the pipeline. `workers` >= 1; shard s of the
  /// monitor is served by lane s % workers, so per-vehicle order holds.
  IngestPipeline(FleetMonitor* monitor, const FleetConfig& config,
                 size_t num_shards);
  ~IngestPipeline();
  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Stages one point. Returns false iff the point was shed (kShed policy,
  /// lane full); under kBlock it waits for space and always returns true.
  bool Submit(const FleetPoint& point);

  /// Stages a batch; returns the number accepted (== points.size() under
  /// kBlock). Points of one vehicle keep their relative order.
  size_t SubmitBatch(std::span<const FleetPoint> points);

  /// Stages an end-of-trip marker behind every point the vehicle has
  /// submitted so far; the lane worker calls EndTrip in turn. Never shed.
  void SubmitEnd(int64_t vehicle_id);

  /// Blocks until every lane is empty and every worker idle: all points
  /// staged before the call are fully fed (and their alerts emitted or
  /// enqueued for delivery).
  void Quiesce();

  /// Points accepted into a lane (monotonic; excludes shed ones).
  int64_t PointsSubmitted() const;
  /// Points dropped by the kShed policy (monotonic).
  int64_t PointsShed() const;

 private:
  struct Item {
    FleetPoint point;
    bool end_marker = false;
  };

  struct alignas(64) Lane {
    common::Mutex mu{common::lockrank::kFleetIngest};
    common::CondVar items_cv;
    common::CondVar space_cv;
    common::CondVar idle_cv;
    std::deque<Item> staged RL4OASD_GUARDED_BY(mu);
    bool busy RL4OASD_GUARDED_BY(mu) = false;
    bool stop RL4OASD_GUARDED_BY(mu) = false;
    std::atomic<int64_t> submitted{0};
    std::atomic<int64_t> shed{0};
  };

  Lane& LaneOf(int64_t vehicle_id);
  bool Stage(Lane& lane, Item item, bool droppable);
  void WorkerLoop(Lane* lane);
  /// Feeds a drained wave: FeedBatch over point runs, EndTrip at markers.
  void ProcessWave(std::vector<Item>* wave);

  FleetMonitor* const monitor_;
  const size_t capacity_;
  const bool shed_;
  const uint64_t shard_mask_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;
};

}  // namespace rl4oasd::serve
