#include "serve/fleet.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "io/fleet_snapshot.h"
#include "io/model_io.h"
#include "serve/delivery_queue.h"
#include "serve/ingest_queue.h"

namespace rl4oasd::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

using io::FleetCounter;
using Anomaly = IngestGuard::Anomaly;

/// Binds each snapshotted counter to its FleetStats field, indexed by
/// io::FleetCounter; the guard's per-class counters also name the anomaly
/// class they count.
struct CounterBinding {
  int64_t FleetStats::*field;
  Anomaly anomaly = Anomaly::kNone;
};
constexpr CounterBinding kCounters[] = {
    {&FleetStats::trips_started},
    {&FleetStats::trips_finished},
    {&FleetStats::points_processed},
    {&FleetStats::alerts_emitted},
    {&FleetStats::trips_evicted},
    {&FleetStats::guard_duplicates, Anomaly::kDuplicate},
    {&FleetStats::guard_out_of_order, Anomaly::kOutOfOrder},
    {&FleetStats::guard_clock_skew, Anomaly::kClockSkew},
    {&FleetStats::guard_dropout_gaps, Anomaly::kDropout},
    {&FleetStats::guard_teleports, Anomaly::kTeleport},
    {&FleetStats::guard_invalid_edges, Anomaly::kInvalidEdge},
    {&FleetStats::points_repaired},
    {&FleetStats::points_rejected},
    {&FleetStats::points_quarantine_dropped},
    {&FleetStats::trips_quarantined},
    {&FleetStats::trips_recovered},
    {&FleetStats::quarantine_evictions},
};
static_assert(std::size(kCounters) == io::kNumFleetCounters);

/// Rounds up to a power of two (shard indexing uses a bitmask).
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FleetMonitor::FleetMonitor(std::shared_ptr<const core::Rl4Oasd> model,
                           FleetConfig config, AlertSink* sink)
    : config_(config),
      sink_(sink),
      guard_(config.guard,
             model == nullptr ? nullptr : model->network()),
      shards_(RoundUpPow2(std::max<size_t>(config.num_shards, 1))) {
  RL4_CHECK(model != nullptr);
  RL4_CHECK_GT(config_.max_active_trips, 0u);
  // Concurrent sessions only read the model. It must not be retrained
  // (Fit/FineTune) while this monitor is serving it — fine-tuned refreshes
  // come in through SwapModel as separate instances.
  auto handle = std::make_shared<ModelHandle>();
  handle->generation = 1;
  handle->model = std::move(model);
  model_handle_ = std::move(handle);
  current_generation_.store(1, kRelaxed);
  // Async plumbing last: the ingest workers capture `this`, so every other
  // member must already be live when they start.
  if (sink_ != nullptr && config_.async_alerts) {
    delivery_ = std::make_unique<AlertDeliveryQueue>(
        sink_, config_.alert_queue_capacity);
  }
  if (config_.ingest_workers > 0) {
    ingest_ = std::make_unique<IngestPipeline>(this, config_, shards_.size());
  }
}

FleetMonitor::~FleetMonitor() {
  // Producers first: the ingest workers drain their lanes and may enqueue
  // delivery events while doing so; the delivery queue then flushes its
  // backlog. Reversing this order would lose the drained points' alerts.
  ingest_.reset();
  delivery_.reset();
}

FleetMonitor::FleetMonitor(const core::Rl4Oasd* model, FleetConfig config,
                           AlertSink* sink)
    : FleetMonitor(std::shared_ptr<const core::Rl4Oasd>(
                       model, [](const core::Rl4Oasd*) {}),
                   config, sink) {}

uint64_t FleetMonitor::ModelHandle::Fingerprint() const {
  std::call_once(fingerprint_once_,
                 [this] { fingerprint_ = io::ModelFingerprint(*model); });
  return fingerprint_;
}

std::shared_ptr<const FleetMonitor::ModelHandle> FleetMonitor::CurrentHandle()
    const {
  common::MutexLock lock(&model_mu_);
  return model_handle_;
}

std::shared_ptr<const core::Rl4Oasd> FleetMonitor::model() const {
  return CurrentHandle()->model;
}

uint64_t FleetMonitor::ModelGeneration() const {
  return CurrentHandle()->generation;
}

std::shared_ptr<const core::Rl4Oasd> FleetMonitor::SwapModel(
    std::shared_ptr<const core::Rl4Oasd> model) {
  RL4_CHECK(model != nullptr);
  auto fresh = std::make_shared<ModelHandle>();
  fresh->model = std::move(model);
  // Degenerate self-swap check: "fine-tuned refreshes come in through
  // SwapModel as separate instances" is an enforced contract, not a comment.
  // Identical bytes would re-prime every in-flight trip for nothing, so a
  // fingerprint-equal handle is rejected as a no-op — the incoming model is
  // handed straight back as if retired immediately. (Fingerprinting
  // serializes both models once; swaps are rare and the current handle's
  // fingerprint is memoized, so the snapshot path reuses it.)
  if (fresh->Fingerprint() == CurrentHandle()->Fingerprint()) {
    RL4_LOG(Warning) << "SwapModel called with a fingerprint-identical "
                        "model; rejecting the self-swap as a no-op";
    return fresh->model;
  }
  std::shared_ptr<const ModelHandle> old;
  {
    common::MutexLock lock(&model_mu_);
    fresh->generation = model_handle_->generation + 1;
    current_generation_.store(fresh->generation, kRelaxed);
    old = std::move(model_handle_);
    model_handle_ = std::move(fresh);
  }
  return old->model;
}

void FleetMonitor::ReprimeLocked(
    Trip* trip, const std::shared_ptr<const ModelHandle>& handle) {
  trip->session = handle->model->detector().ReprimeSession(trip->session);
  trip->handle = handle;
}

Status FleetMonitor::StartTrip(int64_t vehicle_id, traj::SdPair sd,
                               double start_time) {
  Shard& shard = ShardOf(vehicle_id);
  const std::string precondition_msg =
      "vehicle " + std::to_string(vehicle_id) +
      " already has an active trip (EndTrip it first)";
  // Reject duplicates early so the common failure is cheap. (A racing
  // double-start can still reach the emplace below, which stays
  // authoritative.)
  {
    common::MutexLock lock(&shard.mu);
    if (shard.trips.contains(vehicle_id)) {
      return Status::FailedPrecondition(precondition_msg);
    }
  }
  // The session (LSTM state allocation) is built before any lock is taken.
  auto handle = CurrentHandle();
  auto trip = std::make_shared<Trip>(
      handle->model->StartSession(sd, start_time), sd, start_time,
      std::move(handle));
  // Slot reservation is atomic with admission: the emplace is the single
  // admission point, and the active-trip counter bumps under the same shard
  // lock only for an inserted trip. N concurrent admissions therefore read
  // N *distinct* reservation indices, so exactly the admissions past the
  // cap know they owe an eviction — the old check-then-insert admitted up
  // to cap + N - 1 trips with nobody evicting. A failed (duplicate) start
  // never touches the counter and never evicts; the old code evicted
  // *before* the insert, so a racing duplicate start could sacrifice an
  // innocent stalest trip and then fail anyway. (Reserving before the
  // insert and undoing on failure has the same flaw one level down: the
  // loser's transient reservation inflates a concurrent winner's count and
  // makes *it* over-evict.)
  const int64_t cap = static_cast<int64_t>(config_.max_active_trips);
  int64_t reserved = 0;
  {
    common::MutexLock lock(&shard.mu);
    const auto [it, inserted] = shard.trips.emplace(vehicle_id, trip);
    if (!inserted) {
      return Status::FailedPrecondition(precondition_msg);
    }
    reserved = active_trips_.fetch_add(1, kRelaxed) + 1;
  }
  Count(&shard, FleetCounter::kTripsStarted);
  if (reserved > cap) {
    // This admission overflowed the cap, so it pays for exactly one
    // eviction. The count can transiently sit above the cap (by the number
    // of in-flight admissions), but every over-cap admission evicts once,
    // so quiescent active <= cap is exact. A concurrent EndTrip can make
    // this eviction redundant (active dips below the cap); low is the safe
    // side — the cap bounds memory.
    (void)EvictStalest();
  }
  return Status::OK();
}

std::shared_ptr<FleetMonitor::Trip> FleetMonitor::ResolveTrip(
    Shard& shard, int64_t vehicle_id) {
  common::MutexLock lock(&shard.mu);
  const auto it = shard.trips.find(vehicle_id);
  return it == shard.trips.end() ? nullptr : it->second;
}

void FleetMonitor::EmitNewRuns(int64_t vehicle_id, Trip* trip, Shard* shard,
                               double timestamp) {
  const auto runs = trip->session.TakeNewlyClosedRuns();
  if (runs.empty()) return;
  const size_t position = trip->session.labels().size();
  for (const auto& run : runs) {
    SinkAlert(Alert{vehicle_id, trip->sd, trip->start_time, run, timestamp,
                    position});
  }
  Count(shard, FleetCounter::kAlertsEmitted, static_cast<int64_t>(runs.size()));
}

// The Sink* helpers run under the reporting trip's lock (their callers are
// the EmitNewRuns/EndTrip/FinishEvicted critical sections); enqueueing on
// the delivery queue there is rank-legal (kFleetDelivery > kFleetTrip) and
// is precisely what stamps the event sequence "under the trip lock".

void FleetMonitor::SinkAlert(const Alert& alert) {
  if (sink_ == nullptr) return;
  if (delivery_ != nullptr) {
    DeliveryEvent event;
    event.kind = DeliveryEvent::Kind::kAlert;
    event.alert = alert;
    event.vehicle_id = alert.vehicle_id;
    delivery_->Enqueue(std::move(event));
    return;
  }
  sink_->OnAlert(alert);
}

void FleetMonitor::SinkTripEnd(int64_t vehicle_id,
                               const std::vector<uint8_t>& labels) {
  if (sink_ == nullptr) return;
  if (delivery_ != nullptr) {
    DeliveryEvent event;
    event.kind = DeliveryEvent::Kind::kTripEnd;
    event.vehicle_id = vehicle_id;
    event.labels = labels;
    delivery_->Enqueue(std::move(event));
    return;
  }
  sink_->OnTripEnd(vehicle_id, labels);
}

void FleetMonitor::SinkTripEvicted(int64_t vehicle_id, double start_time,
                                   const std::vector<uint8_t>& labels) {
  if (sink_ == nullptr) return;
  if (delivery_ != nullptr) {
    DeliveryEvent event;
    event.kind = DeliveryEvent::Kind::kTripEvicted;
    event.vehicle_id = vehicle_id;
    event.start_time = start_time;
    event.labels = labels;
    delivery_->Enqueue(std::move(event));
    return;
  }
  sink_->OnTripEvicted(vehicle_id, start_time, labels);
}

void FleetMonitor::SinkTripFinalized(int64_t vehicle_id, traj::SdPair sd,
                                     double start_time,
                                     const std::vector<traj::EdgeId>& edges,
                                     const std::vector<uint8_t>& labels) {
  if (sink_ == nullptr) return;
  if (delivery_ != nullptr) {
    DeliveryEvent event;
    event.kind = DeliveryEvent::Kind::kTripFinalized;
    event.vehicle_id = vehicle_id;
    event.sd = sd;
    event.start_time = start_time;
    event.edges = edges;
    event.labels = labels;
    delivery_->Enqueue(std::move(event));
    return;
  }
  sink_->OnTripFinalized(vehicle_id, sd, start_time, edges, labels);
}

void FleetMonitor::SinkTripQuarantined(int64_t vehicle_id, double start_time,
                                       int64_t malformed_points) {
  if (sink_ == nullptr) return;
  if (delivery_ != nullptr) {
    DeliveryEvent event;
    event.kind = DeliveryEvent::Kind::kTripQuarantined;
    event.vehicle_id = vehicle_id;
    event.start_time = start_time;
    event.malformed = malformed_points;
    delivery_->Enqueue(std::move(event));
    return;
  }
  sink_->OnTripQuarantined(vehicle_id, start_time, malformed_points);
}

FleetMonitor::GuardVerdict FleetMonitor::ApplyGuard(int64_t vehicle_id,
                                                    Trip* trip, Shard* shard,
                                                    traj::EdgeId edge,
                                                    double* timestamp) {
  const IngestGuard::Decision d = guard_.Check(&trip->guard, edge,
                                               *timestamp);
  if (d.anomaly != Anomaly::kNone) {
    for (size_t i = 0; i < io::kNumFleetCounters; ++i) {
      if (kCounters[i].anomaly == d.anomaly) {
        Count(shard, static_cast<FleetCounter>(i));
      }
    }
  }
  if (d.repaired) Count(shard, FleetCounter::kPointsRepaired);
  if (!d.accept) {
    Count(shard, d.quarantine_dropped ? FleetCounter::kPointsQuarantineDropped
                                      : FleetCounter::kPointsRejected);
  }
  if (d.entered_quarantine) {
    Count(shard, FleetCounter::kTripsQuarantined);
    // Fired here, under the trip lock, so the quarantine notice is
    // sequenced against the trip's alerts exactly like every other
    // lifecycle event.
    SinkTripQuarantined(vehicle_id, trip->start_time,
                        trip->guard.malformed_total);
  }
  if (d.recovered) Count(shard, FleetCounter::kTripsRecovered);
  *timestamp = d.timestamp;
  return GuardVerdict{d.accept, d.evict};
}

Result<int> FleetMonitor::Feed(int64_t vehicle_id, traj::EdgeId edge,
                               double timestamp) {
  Shard& shard = ShardOf(vehicle_id);
  for (;;) {
    const std::shared_ptr<Trip> trip = ResolveTrip(shard, vehicle_id);
    if (trip == nullptr) {
      return Status::NotFound("vehicle " + std::to_string(vehicle_id) +
                              " has no active trip");
    }
    Trip* const t = trip.get();
    bool evict = false;
    bool quarantine_dropped = false;
    {
      common::MutexLock lock(&t->mu);
      // A finisher (EndTrip/eviction) erases the trip from the shard map
      // *before* setting finished, so observing the flag here means a fresh
      // resolve sees either nothing or the vehicle's next trip — retry
      // rather than dropping a point the vehicle's live trip should get.
      if (t->finished) continue;
      // Lazy hot-swap migration: a trip still primed against a retired
      // model replays its history through the current one before this
      // point. The relaxed generation hint keeps the steady-state path free
      // of the model mutex and handle refcount; a trip already *newer* than
      // the fetched handle (SwapModel raced us) just proceeds on its own
      // session.
      if (t->handle->generation < current_generation_.load(kRelaxed)) {
        const auto handle = CurrentHandle();
        if (t->handle->generation < handle->generation) {
          ReprimeLocked(t, handle);
        }
      }
      // The input contract runs before the session sees anything. The
      // timestamp comes back rewritten to the trip's monotone clock, which
      // is what staleness and alert timestamps record — one skewed or
      // negative client timestamp can no longer mark the trip stalest.
      double ts = timestamp;
      const GuardVerdict v = ApplyGuard(vehicle_id, t, &shard, edge, &ts);
      t->last_update.store(ts, kRelaxed);
      if (v.accept) {
        const int label = t->session.Feed(edge);
        EmitNewRuns(vehicle_id, t, &shard, ts);
        Count(&shard, FleetCounter::kPointsProcessed);
        return label;
      }
      evict = v.evict;
      quarantine_dropped = t->guard.quarantined || evict;
    }
    // The quarantine point budget ran out: remove the trip with no trip
    // lock held (shard rank sits below trip rank). `trip` keeps it alive.
    if (evict) EvictQuarantined(vehicle_id, t);
    if (quarantine_dropped) {
      return Status::ResourceExhausted(
          "vehicle " + std::to_string(vehicle_id) +
          " is quarantined (malformed-point budget exceeded); point dropped");
    }
    return Status::InvalidArgument(
        "point rejected by the ingest guard for vehicle " +
        std::to_string(vehicle_id));
  }
}

// Analysis opt-out rationale: a wave holds a *runtime-sized set* of trip
// locks in one std::vector<common::UniqueLock>, which Clang TSA cannot
// model (capabilities must be compile-time expressions). The protocol is
// enforced elsewhere on both axes: the debug-build rank checker asserts the
// ascending-address same-rank acquisition order at runtime on every wave,
// and the TSAN CI job stresses concurrent FeedBatch callers.
size_t FleetMonitor::FeedBatch(std::span<const FleetPoint> points)
    RL4OASD_NO_THREAD_SAFETY_ANALYSIS {
  if (points.empty()) return 0;
  const size_t num_shards = shards_.size();
  // Counting-sort point indices by shard — stable, so a vehicle's points
  // keep their relative order — then resolve every point's trip with one
  // shard-lock acquisition per shard.
  std::vector<size_t> offsets(num_shards + 1, 0);
  for (const FleetPoint& p : points) ++offsets[ShardIndexOf(p.vehicle_id) + 1];
  for (size_t s = 0; s < num_shards; ++s) offsets[s + 1] += offsets[s];
  std::vector<size_t> order(points.size());
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < points.size(); ++i) {
    order[cursor[ShardIndexOf(points[i].vehicle_id)]++] = i;
  }
  std::vector<std::shared_ptr<Trip>> resolved(points.size());
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = offsets[s];
    const size_t end = offsets[s + 1];
    if (begin == end) continue;
    Shard& shard = shards_[s];
    common::MutexLock lock(&shard.mu);
    for (size_t k = begin; k < end; ++k) {
      const auto it = shard.trips.find(points[order[k]].vehicle_id);
      if (it != shard.trips.end()) resolved[k] = it->second;
    }
  }

  // Group each trip's points into a per-trip queue by sorting (trip
  // address, arrival index) pairs: one O(n log n) pass, no per-trip
  // allocations, and the resulting group order doubles as the global
  // lock-acquisition order. One resolve pass per batch means every point
  // of a vehicle maps to the same Trip pointer; restarts mid-batch surface
  // as `finished` below. `resolved` keeps every grouped Trip alive for the
  // whole call.
  std::vector<std::pair<Trip*, size_t>> items;  // (trip, index into points)
  items.reserve(points.size());
  for (size_t k = 0; k < points.size(); ++k) {
    if (resolved[k] != nullptr) {
      items.emplace_back(resolved[k].get(), order[k]);
    }
  }
  // std::less, not raw `<`: deadlock freedom needs every concurrent caller
  // to agree on one total order over unrelated Trip pointers, which only
  // std::less guarantees.
  std::sort(items.begin(), items.end(),
            [](const std::pair<Trip*, size_t>& a,
               const std::pair<Trip*, size_t>& b) {
              if (a.first != b.first) {
                return std::less<Trip*>{}(a.first, b.first);
              }
              return a.second < b.second;
            });
  struct TripGroup {
    size_t next;   // current queue position in `items`
    size_t end;    // one past the queue's last position
    Shard* shard;
    bool fallback = false;  // trip ended mid-batch; rest goes through Feed
  };
  std::vector<TripGroup> groups;
  for (size_t begin = 0; begin < items.size();) {
    size_t end = begin + 1;
    while (end < items.size() && items[end].first == items[begin].first) {
      ++end;
    }
    groups.push_back(TripGroup{
        begin, end, &ShardOf(points[items[begin].second].vehicle_id)});
    begin = end;
  }

  // Wave loop: each round takes the next point of every still-active trip
  // and fuses up to `micro_batch` of those model steps into one batched
  // detector forward. All of a chunk's trip locks are held across the fused
  // step; groups are visited in Trip-address order, so concurrent FeedBatch
  // callers (and the single-lock paths) cannot deadlock.
  const size_t wave_cap = std::max<size_t>(size_t{1}, config_.micro_batch);
  std::vector<int64_t> shard_fed(num_shards, 0);
  size_t fed = 0;
  // `active` holds the still-live group indices and is compacted once per
  // round (not rebuilt), so a skewed batch — one deep per-trip queue among
  // many short ones — costs O(total points), not O(rounds * groups).
  std::vector<size_t> active;
  active.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) active.push_back(g);
  std::vector<common::UniqueLock> locks;
  locks.reserve(std::min(wave_cap, groups.size()));
  std::vector<size_t> live;
  std::vector<core::OnlineDetector::Session*> sessions;
  std::vector<traj::EdgeId> edges;
  std::vector<double> live_ts;
  // Quarantine evictions decided during a wave are deferred until the
  // chunk's locks are released: eviction re-acquires shard then trip locks,
  // which the rank hierarchy forbids while any wave lock is held. The
  // `resolved` vector keeps every victim alive until then.
  std::vector<std::pair<int64_t, Trip*>> quarantine_victims;
  while (!active.empty()) {
    for (size_t chunk = 0; chunk < active.size(); chunk += wave_cap) {
      const size_t chunk_end = std::min(active.size(), chunk + wave_cap);
      // One model handle per wave chunk: every fused session is primed
      // against it, so the batched detector call never mixes weights.
      const auto handle = CurrentHandle();
      locks.clear();
      live.clear();
      sessions.clear();
      edges.clear();
      live_ts.clear();
      for (size_t i = chunk; i < chunk_end; ++i) {
        TripGroup& g = groups[active[i]];
        Trip* trip = items[g.next].first;
        locks.emplace_back(&trip->mu);
        if (trip->finished) {
          // Ended under us (EndTrip or eviction, possibly followed by a
          // same-vehicle restart): release the lock and route this trip's
          // remaining points through Feed, which re-resolves.
          g.fallback = true;
          locks.pop_back();
          continue;
        }
        if (trip->handle->generation < handle->generation) {
          ReprimeLocked(trip, handle);
        }
        // The same input contract as Feed, applied before the fusion
        // decision so sync and async ingest stay point-for-point
        // equivalent.
        const FleetPoint& p = points[items[g.next].second];
        double ts = p.timestamp;
        const GuardVerdict v =
            ApplyGuard(p.vehicle_id, trip, g.shard, p.edge, &ts);
        trip->last_update.store(ts, kRelaxed);
        if (!v.accept) {
          if (v.evict) quarantine_victims.emplace_back(p.vehicle_id, trip);
          ++g.next;
          locks.pop_back();
          continue;
        }
        if (trip->handle != handle) {
          // A racing SwapModel moved this trip past our handle between the
          // fetch above and taking its lock: its session belongs to a newer
          // detector, so it cannot fuse into this wave. Feed it scalar on
          // its own (newer) model instead — same bookkeeping, no fusion.
          (void)trip->session.Feed(p.edge);
          EmitNewRuns(p.vehicle_id, trip, g.shard, ts);
          ++shard_fed[ShardIndexOf(p.vehicle_id)];
          ++g.next;
          continue;
        }
        live.push_back(active[i]);
        sessions.push_back(&trip->session);
        edges.push_back(p.edge);
        live_ts.push_back(ts);
      }
      if (!sessions.empty()) {
        handle->model->detector().FeedBatch(sessions, edges);
        for (size_t li = 0; li < live.size(); ++li) {
          TripGroup& g = groups[live[li]];
          Trip* trip = items[g.next].first;
          const FleetPoint& p = points[items[g.next].second];
          EmitNewRuns(p.vehicle_id, trip, g.shard, live_ts[li]);
          ++shard_fed[ShardIndexOf(p.vehicle_id)];
          ++g.next;
        }
      }
      locks.clear();
      // No wave lock held: finish this chunk's quarantine evictions. A
      // victim's remaining points hit its `finished` flag next round and
      // fall back to Feed, which re-resolves (NotFound, or the vehicle's
      // next trip).
      for (const auto& [vehicle, victim] : quarantine_victims) {
        EvictQuarantined(vehicle, victim);
      }
      quarantine_victims.clear();
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](size_t g) {
                                  return groups[g].fallback ||
                                         groups[g].next >= groups[g].end;
                                }),
                 active.end());
  }

  for (size_t s = 0; s < num_shards; ++s) {
    if (shard_fed[s] != 0) {
      Count(&shards_[s], FleetCounter::kPointsProcessed, shard_fed[s]);
      fed += static_cast<size_t>(shard_fed[s]);
    }
  }
  // Deferred fallback: trips that ended mid-batch. Feed counts the points
  // it accepts itself.
  for (const TripGroup& g : groups) {
    if (!g.fallback) continue;
    for (size_t k = g.next; k < g.end; ++k) {
      const FleetPoint& p = points[items[k].second];
      if (Feed(p.vehicle_id, p.edge, p.timestamp).ok()) ++fed;
    }
  }
  return fed;
}

Status FleetMonitor::Submit(const FleetPoint& point) {
  if (ingest_ == nullptr) {
    return Status::FailedPrecondition(
        "async ingest is disabled (FleetConfig::ingest_workers == 0); use "
        "Feed/FeedBatch or configure workers");
  }
  if (!ingest_->Submit(point)) {
    return Status::ResourceExhausted(
        "ingest lane full; point shed (OverloadPolicy::kShed)");
  }
  return Status::OK();
}

size_t FleetMonitor::SubmitBatch(std::span<const FleetPoint> points) {
  if (ingest_ == nullptr) return 0;
  return ingest_->SubmitBatch(points);
}

Status FleetMonitor::SubmitEndTrip(int64_t vehicle_id) {
  if (ingest_ == nullptr) {
    return Status::FailedPrecondition(
        "async ingest is disabled (FleetConfig::ingest_workers == 0); use "
        "EndTrip");
  }
  ingest_->SubmitEnd(vehicle_id);
  return Status::OK();
}

void FleetMonitor::Quiesce() {
  // Order matters: draining the lanes can enqueue delivery events, so the
  // delivery flush must come second to cover them.
  if (ingest_ != nullptr) ingest_->Quiesce();
  if (delivery_ != nullptr) delivery_->Flush();
}

Result<std::vector<uint8_t>> FleetMonitor::EndTrip(int64_t vehicle_id) {
  Shard& shard = ShardOf(vehicle_id);
  std::shared_ptr<Trip> trip;
  {
    common::MutexLock lock(&shard.mu);
    const auto it = shard.trips.find(vehicle_id);
    if (it == shard.trips.end()) {
      return Status::NotFound("vehicle " + std::to_string(vehicle_id) +
                              " has no active trip");
    }
    trip = std::move(it->second);
    shard.trips.erase(it);
  }
  active_trips_.fetch_sub(1, kRelaxed);
  std::vector<uint8_t> labels;
  {
    Trip* const t = trip.get();
    common::MutexLock lock(&t->mu);
    t->finished = true;
    // Finish settles Delayed Labeling over the whole trip; any run not yet
    // alerted (including one still open: reaching the destination closes it
    // by definition) becomes takable and is emitted here.
    labels = t->session.Finish();
    EmitNewRuns(vehicle_id, t, &shard, t->last_update.load(kRelaxed));
    SinkTripEnd(vehicle_id, labels);
    // The harvesting callback: a completed trip's (edges, final labels)
    // pair is a ready-made training sample for online learning. Exactly
    // once per trip — `finished` above makes this EndTrip the only one
    // that reaches here.
    SinkTripFinalized(vehicle_id, t->sd, t->start_time, t->session.edges(),
                      labels);
  }
  Count(&shard, FleetCounter::kTripsFinished);
  return labels;
}

void FleetMonitor::FinishEvicted(int64_t vehicle_id, Trip* trip,
                                 Shard* shard) {
  active_trips_.fetch_sub(1, kRelaxed);
  {
    common::MutexLock lock(&trip->mu);
    trip->finished = true;
    const double ts = trip->last_update.load(kRelaxed);
    // Runs that became final but were never drained, then the still-open
    // tail: eviction must not silently drop an anomaly in progress.
    EmitNewRuns(vehicle_id, trip, shard, ts);
    if (const auto open = trip->session.OpenRun()) {
      SinkAlert(Alert{vehicle_id, trip->sd, trip->start_time, *open, ts,
                      trip->session.labels().size()});
      Count(shard, FleetCounter::kAlertsEmitted);
    }
    SinkTripEvicted(vehicle_id, trip->start_time, trip->session.labels());
  }
  Count(shard, FleetCounter::kTripsEvicted);
}

void FleetMonitor::EvictQuarantined(int64_t vehicle_id, Trip* trip) {
  Shard& shard = ShardOf(vehicle_id);
  {
    common::MutexLock lock(&shard.mu);
    const auto it = shard.trips.find(vehicle_id);
    // Identity check, not just vehicle id: EndTrip, a stale/stalest
    // eviction, or a duplicate quarantine-evict signal may have removed
    // this trip already (and the vehicle may even be on a new trip). Losing
    // the race means someone else finished the trip — nothing owed here.
    if (it == shard.trips.end() || it->second.get() != trip) return;
    shard.trips.erase(it);
  }
  FinishEvicted(vehicle_id, trip, &shard);
  Count(&shard, FleetCounter::kQuarantineEvictions);
}

size_t FleetMonitor::EvictStale(double now) {
  size_t evicted = 0;
  for (Shard& shard : shards_) {
    std::vector<std::pair<int64_t, std::shared_ptr<Trip>>> victims;
    {
      common::MutexLock lock(&shard.mu);
      for (auto it = shard.trips.begin(); it != shard.trips.end();) {
        if (now - it->second->last_update.load(kRelaxed) >
            config_.trip_timeout_s) {
          victims.emplace_back(it->first, std::move(it->second));
          it = shard.trips.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Notify outside the shard lock so other vehicles keep flowing while
    // the sink handles the evictions.
    for (auto& [vehicle, trip] : victims) {
      FinishEvicted(vehicle, trip.get(), &shard);
    }
    evicted += victims.size();
  }
  return evicted;
}

bool FleetMonitor::EvictStalest() {
  // Two passes per attempt: find the globally stalest trip, then remove it,
  // rechecking the trip's *identity* (not just the vehicle id) — a trip
  // that ended or was replaced by a same-vehicle restart between the passes
  // must be spared. Losing that race retries the scan: the caller is an
  // over-cap admission that still owes the hierarchy one eviction, so
  // "someone else removed my victim" must not silently count as mine.
  for (;;) {
    int64_t victim = 0;
    std::shared_ptr<Trip> observed;
    double oldest = std::numeric_limits<double>::infinity();
    for (Shard& shard : shards_) {
      common::MutexLock lock(&shard.mu);
      for (const auto& [vehicle, trip] : shard.trips) {
        const double last = trip->last_update.load(kRelaxed);
        if (last < oldest) {
          oldest = last;
          victim = vehicle;
          observed = trip;
        }
      }
    }
    if (observed == nullptr) return false;
    Shard& shard = ShardOf(victim);
    std::shared_ptr<Trip> trip;
    {
      common::MutexLock lock(&shard.mu);
      const auto it = shard.trips.find(victim);
      if (it == shard.trips.end() || it->second != observed) continue;
      trip = std::move(it->second);
      shard.trips.erase(it);
    }
    FinishEvicted(victim, trip.get(), &shard);
    return true;
  }
}

size_t FleetMonitor::ActiveTrips() const {
  const int64_t n = active_trips_.load(kRelaxed);
  return n > 0 ? static_cast<size_t>(n) : 0;
}

FleetStats FleetMonitor::Stats() const {
  FleetStats stats;
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < io::kNumFleetCounters; ++i) {
      stats.*kCounters[i].field += shard.counters[i].load(kRelaxed);
    }
  }
  if (ingest_ != nullptr) {
    stats.points_submitted = ingest_->PointsSubmitted();
    stats.points_shed = ingest_->PointsShed();
  }
  stats.alerts_delivered = delivery_ != nullptr ? delivery_->AlertsDelivered()
                                                : stats.alerts_emitted;
  return stats;
}

Result<double> FleetMonitor::TripHealth(int64_t vehicle_id) {
  Shard& shard = ShardOf(vehicle_id);
  const std::shared_ptr<Trip> trip = ResolveTrip(shard, vehicle_id);
  if (trip == nullptr) {
    return Status::NotFound("vehicle " + std::to_string(vehicle_id) +
                            " has no active trip");
  }
  common::MutexLock lock(&trip->mu);
  return guard_.HealthScore(trip->guard);
}

Result<bool> FleetMonitor::TripQuarantined(int64_t vehicle_id) {
  Shard& shard = ShardOf(vehicle_id);
  const std::shared_ptr<Trip> trip = ResolveTrip(shard, vehicle_id);
  if (trip == nullptr) {
    return Status::NotFound("vehicle " + std::to_string(vehicle_id) +
                            " has no active trip");
  }
  common::MutexLock lock(&trip->mu);
  return trip->guard.quarantined;
}

std::string FleetMonitor::DumpMetrics() const {
  const FleetStats s = Stats();
  std::string out;
  out.reserve(1024);
  const auto line = [&out](std::string_view name, int64_t value) {
    out.append(name);
    out.push_back(' ');
    out.append(std::to_string(value));
    out.push_back('\n');
  };
  for (size_t i = 0; i < io::kNumFleetCounters; ++i) {
    line(io::kFleetCounterNames[i], s.*kCounters[i].field);
  }
  line("fleet_trips_active", static_cast<int64_t>(ActiveTrips()));
  line("fleet_points_submitted", s.points_submitted);
  line("fleet_points_shed", s.points_shed);
  line("fleet_alerts_delivered", s.alerts_delivered);
  line("model_generation", static_cast<int64_t>(ModelGeneration()));
  return out;
}

std::vector<int64_t> FleetMonitor::TakeAlertLatencySamplesNs() {
  if (delivery_ == nullptr) return {};
  return delivery_->TakeLatencySamplesNs();
}

Status FleetMonitor::Snapshot(BinaryWriter* w, std::string_view user_meta) {
  const auto handle = CurrentHandle();
  const FleetStats stats = Stats();

  // Quiesce shard by shard: the trip list is copied under the shard lock
  // (map mutations pause for microseconds), then every trip serializes
  // under only its own lock — ingest for all other trips keeps flowing.
  std::vector<std::tuple<int64_t, double, std::string, std::string>> records;
  std::vector<std::pair<int64_t, std::shared_ptr<Trip>>> shard_trips;
  for (Shard& shard : shards_) {
    shard_trips.clear();
    {
      common::MutexLock lock(&shard.mu);
      shard_trips.reserve(shard.trips.size());
      for (const auto& [vehicle, trip] : shard.trips) {
        shard_trips.emplace_back(vehicle, trip);
      }
    }
    for (auto& [vehicle, trip] : shard_trips) {
      common::MutexLock lock(&trip->mu);
      if (trip->finished) continue;  // ended while we walked the shard
      // Migrate stragglers first so every record is primed against the
      // fingerprint stamped in the header.
      if (trip->handle->generation < handle->generation) {
        ReprimeLocked(trip.get(), handle);
      }
      if (trip->handle != handle) {
        return Status::FailedPrecondition(
            "model was hot-swapped while the snapshot was being taken; "
            "retry the snapshot");
      }
      BinaryWriter session;
      trip->session.ExportState(&session);
      BinaryWriter guard_state;
      trip->guard.ExportState(&guard_state);
      records.emplace_back(vehicle, trip->last_update.load(kRelaxed),
                           session.buffer(), guard_state.buffer());
    }
  }

  // Canonical record order: shard-map iteration order depends on insertion
  // history, so sort by vehicle id — snapshotting a restored fleet then
  // reproduces the original snapshot bit for bit.
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) {
              return std::get<0>(a) < std::get<0>(b);
            });

  // Assemble into a local writer and publish all-or-nothing: an aborted
  // snapshot (mid-swap above) must not leave a partial header in the
  // caller's buffer, which would corrupt a retry into the same writer.
  BinaryWriter out;
  out.WriteBytes(io::kFleetSnapshotMagic, 4);
  out.WriteU32(io::kFleetSnapshotVersion);
  out.WriteU64(handle->Fingerprint());
  out.WriteString(user_meta);
  for (const CounterBinding& c : kCounters) out.WriteI64(stats.*c.field);
  out.WriteU64(records.size());
  for (const auto& [vehicle, last_update, blob, guard_blob] : records) {
    out.WriteI64(vehicle);
    out.WriteF64(last_update);
    out.WriteString(blob);
    out.WriteString(guard_blob);
  }
  w->WriteBytes(out.buffer().data(), out.buffer().size());
  return Status::OK();
}

Status FleetMonitor::Restore(BinaryReader* r, RestoreInfo* info) {
  const auto handle = CurrentHandle();
  io::FleetSnapshotHeader header;
  RL4_RETURN_NOT_OK(io::ReadFleetSnapshotHeader(r, &header));
  if (header.model_fingerprint != handle->Fingerprint()) {
    return Status::FailedPrecondition(
        "snapshot was taken with a different model bundle (fingerprint " +
        std::to_string(header.model_fingerprint) + ", serving " +
        std::to_string(handle->Fingerprint()) +
        "); restoring live LSTM states against other weights would "
        "silently diverge");
  }
  // Counters are hostile input like everything else: a negative one would
  // poison Stats() forever, and one near INT64_MAX wrap on its next bump.
  for (const int64_t v : header.counters) {
    if (v < 0 || v > io::kMaxFleetCounter) {
      return Status::InvalidArgument(
          "snapshot service counters out of range (corrupt or forged header)");
    }
  }

  uint64_t num_trips;
  RL4_RETURN_NOT_OK(io::ReadFleetSnapshotTripCount(r, &num_trips));

  // Two-phase restore: parse and validate every trip first, publish only
  // when the whole snapshot checked out — a corrupt record must not leave
  // a half-restored fleet behind.
  std::vector<std::shared_ptr<Trip>> parsed;
  std::vector<RestoredTrip> restored;
  std::unordered_set<int64_t> seen;
  parsed.reserve(num_trips);
  restored.reserve(num_trips);
  for (uint64_t i = 0; i < num_trips; ++i) {
    int64_t vehicle;
    double last_update;
    std::string blob;
    std::string guard_blob;
    RL4_RETURN_NOT_OK(r->ReadI64(&vehicle));
    RL4_RETURN_NOT_OK(r->ReadF64(&last_update));
    RL4_RETURN_NOT_OK(r->ReadString(&blob));
    RL4_RETURN_NOT_OK(r->ReadString(&guard_blob));
    if (!seen.insert(vehicle).second) {
      return Status::InvalidArgument(
          "snapshot lists vehicle " + std::to_string(vehicle) + " twice");
    }
    BinaryReader session_reader(std::move(blob));
    auto session = handle->model->StartSession({}, 0.0);
    RL4_RETURN_NOT_OK(session.ImportState(&session_reader));
    if (!session_reader.AtEnd()) {
      return Status::IOError("trailing bytes in trip session record");
    }
    if (session.finished()) {
      return Status::InvalidArgument(
          "snapshot contains an already-finished trip");
    }
    BinaryReader guard_reader(std::move(guard_blob));
    IngestGuard::State guard_state;
    RL4_RETURN_NOT_OK(guard_state.ImportState(
        &guard_reader, handle->model->network()->NumEdges()));
    if (!guard_reader.AtEnd()) {
      return Status::IOError("trailing bytes in trip guard record");
    }
    const traj::SdPair sd = session.sd();
    const double start_time = session.start_time();
    const size_t points_fed = session.labels().size();
    auto trip = std::make_shared<Trip>(std::move(session), sd, start_time,
                                       handle);
    trip->last_update.store(last_update, kRelaxed);
    {
      // Not yet published (this monitor is still empty), but the lock keeps
      // the GUARDED_BY contract analysis-clean and costs nothing here.
      common::MutexLock lock(&trip->mu);
      trip->guard = guard_state;
    }
    parsed.push_back(std::move(trip));
    restored.push_back(RestoredTrip{vehicle, sd, start_time, points_fed});
  }
  if (!r->AtEnd()) {
    return Status::IOError("trailing bytes after fleet snapshot payload");
  }
  // The started count is re-derived from the conservation identity rather
  // than trusted: a snapshot taken under live ingest reads its counters and
  // walks its shards at slightly different instants, so the stored value
  // can be offset by in-flight starts — deriving it keeps
  // started == finished + evicted + active exact after every restore (and
  // is identical to the stored value for a quiesced snapshot). The counter
  // ceiling keeps the sum far from overflow.
  const auto live = static_cast<int64_t>(parsed.size());
  header.counters[static_cast<size_t>(FleetCounter::kTripsStarted)] =
      header.counter(FleetCounter::kTripsFinished) +
      header.counter(FleetCounter::kTripsEvicted) + live;
  for (Shard& shard : shards_) {
    common::MutexLock lock(&shard.mu);
    if (!shard.trips.empty()) {
      return Status::FailedPrecondition(
          "restore requires an empty monitor (fresh-process restore)");
    }
  }

  for (size_t i = 0; i < parsed.size(); ++i) {
    Shard& shard = ShardOf(restored[i].vehicle_id);
    common::MutexLock lock(&shard.mu);
    shard.trips.emplace(restored[i].vehicle_id, std::move(parsed[i]));
  }
  active_trips_.fetch_add(live, kRelaxed);
  // Resume the service counters where the snapshot left them (folded into
  // shard 0; Stats() aggregates), so conservation spans the restart.
  for (size_t i = 0; i < io::kNumFleetCounters; ++i) {
    shards_[0].counters[i].fetch_add(header.counters[i], kRelaxed);
  }

  if (info != nullptr) {
    info->user_meta = std::move(header.user_meta);
    info->trips = std::move(restored);
  }
  return Status::OK();
}

}  // namespace rl4oasd::serve
