#include "serve/ingest_queue.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.h"

namespace rl4oasd::serve {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

IngestPipeline::IngestPipeline(FleetMonitor* monitor,
                               const FleetConfig& config, size_t num_shards)
    : monitor_(monitor),
      capacity_(std::max<size_t>(config.ingest_queue_capacity, 1)),
      shed_(config.overload_policy == OverloadPolicy::kShed),
      shard_mask_(num_shards - 1) {
  RL4_CHECK(monitor != nullptr);
  RL4_CHECK_GT(num_shards, 0u);
  const size_t workers =
      std::min(std::max<size_t>(config.ingest_workers, 1), num_shards);
  lanes_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(lanes_[i].get()); });
  }
}

IngestPipeline::~IngestPipeline() {
  for (auto& lane : lanes_) {
    common::MutexLock lock(&lane->mu);
    lane->stop = true;
    lane->items_cv.NotifyAll();
    // Unblock Submit callers stuck waiting for space (caller bug to race
    // the destructor, but a hang would hide it).
    lane->space_cv.NotifyAll();
  }
  // Workers drain everything still staged before exiting, so destruction
  // processes every accepted point.
  for (std::thread& w : workers_) w.join();
}

IngestPipeline::Lane& IngestPipeline::LaneOf(int64_t vehicle_id) {
  // Same mapping as FleetMonitor::ShardIndexOf folded onto the lanes: one
  // vehicle -> one shard -> one lane, which is what keeps per-vehicle
  // submission order end to end.
  const size_t shard = static_cast<uint64_t>(vehicle_id) & shard_mask_;
  return *lanes_[shard % lanes_.size()];
}

bool IngestPipeline::Stage(Lane& lane, Item item, bool droppable) {
  common::MutexLock lock(&lane.mu);
  if (shed_ && droppable) {
    if (lane.stop || lane.staged.size() >= capacity_) {
      lane.shed.fetch_add(1, kRelaxed);
      return false;
    }
  } else {
    while (lane.staged.size() >= capacity_ && !lane.stop) {
      lane.space_cv.Wait(&lane.mu);
    }
    if (lane.stop) return false;
  }
  const bool is_point = !item.end_marker;
  lane.staged.push_back(item);
  if (is_point) lane.submitted.fetch_add(1, kRelaxed);
  lane.items_cv.NotifyOne();
  return true;
}

bool IngestPipeline::Submit(const FleetPoint& point) {
  return Stage(LaneOf(point.vehicle_id), Item{point, /*end_marker=*/false},
               /*droppable=*/true);
}

size_t IngestPipeline::SubmitBatch(std::span<const FleetPoint> points) {
  size_t accepted = 0;
  for (const FleetPoint& p : points) {
    if (Submit(p)) ++accepted;
  }
  return accepted;
}

void IngestPipeline::SubmitEnd(int64_t vehicle_id) {
  (void)Stage(LaneOf(vehicle_id),
              Item{FleetPoint{vehicle_id, 0, 0.0}, /*end_marker=*/true},
              /*droppable=*/false);
}

void IngestPipeline::Quiesce() {
  for (auto& lane : lanes_) {
    common::MutexLock lock(&lane->mu);
    while (!lane->staged.empty() || lane->busy) {
      lane->idle_cv.Wait(&lane->mu);
    }
  }
}

int64_t IngestPipeline::PointsSubmitted() const {
  int64_t total = 0;
  for (const auto& lane : lanes_) total += lane->submitted.load(kRelaxed);
  return total;
}

int64_t IngestPipeline::PointsShed() const {
  int64_t total = 0;
  for (const auto& lane : lanes_) total += lane->shed.load(kRelaxed);
  return total;
}

void IngestPipeline::ProcessWave(std::vector<Item>* wave) {
  // One FeedBatch per run of consecutive points; an end marker first
  // flushes the run (the vehicle's own points are inside it, and a lane is
  // FIFO, so the trip ends strictly after its points), then ends the trip.
  // EndTrip may legitimately fail: the trip can have been evicted, or the
  // marker can belong to a vehicle whose points were all shed.
  std::vector<FleetPoint> run;
  run.reserve(wave->size());
  for (const Item& item : *wave) {
    if (!item.end_marker) {
      run.push_back(item.point);
      continue;
    }
    if (!run.empty()) {
      (void)monitor_->FeedBatch(run);
      run.clear();
    }
    (void)monitor_->EndTrip(item.point.vehicle_id);
  }
  if (!run.empty()) (void)monitor_->FeedBatch(run);
}

void IngestPipeline::WorkerLoop(Lane* lane) {
  std::vector<Item> wave;
  for (;;) {
    bool stopping = false;
    {
      common::MutexLock lock(&lane->mu);
      while (lane->staged.empty() && !lane->stop) {
        lane->items_cv.Wait(&lane->mu);
      }
      stopping = lane->stop;
      // Drain the whole lane: everything that accumulated while the last
      // wave was being fed becomes the next wave (the self-batching step).
      // FeedBatch itself chunks the model work at micro_batch width.
      wave.clear();
      std::move(lane->staged.begin(), lane->staged.end(),
                std::back_inserter(wave));
      lane->staged.clear();
      lane->busy = !wave.empty();
      if (!wave.empty()) lane->space_cv.NotifyAll();
    }
    // Feed with no lane lock held (rank kFleetIngest sits *below* the shard
    // and trip ranks precisely so holding it here would abort the debug
    // rank checker — the lock ordering makes this release mandatory).
    ProcessWave(&wave);
    {
      common::MutexLock lock(&lane->mu);
      lane->busy = false;
      if (lane->staged.empty()) {
        lane->idle_cv.NotifyAll();
        if (stopping) return;
      }
    }
  }
}

}  // namespace rl4oasd::serve
