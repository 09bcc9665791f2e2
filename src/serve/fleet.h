// Fleet monitoring service: concurrent online detection over many vehicles.
//
// The paper's motivating scenario is a ride-hailing operator that "can
// immediately spot an abnormal driver when his/her trajectory starts to
// deviate from the normal route". A deployment therefore runs one detection
// session per *active trip*, fed by an interleaved stream of GPS-derived
// road segments from the whole fleet. FleetMonitor owns that bookkeeping:
// trip lifecycle, thread-safe ingest (synchronous Feed/FeedBatch and the
// self-batching Submit pipeline of serve/ingest_queue.h), stale-trip
// eviction, alert delivery (inline or via the bounded async queue of
// serve/delivery_queue.h), and service counters.
//
// Locking is two-level so throughput scales with cores:
//   * a per-shard mutex guards only the vehicle -> trip map (insert, lookup,
//     erase — microseconds), and
//   * a per-trip mutex guards the detection session itself, so the LSTM
//     forward + policy step and sink callbacks run outside the shard lock
//     and two vehicles hashing to one shard never serialize on model work.
// Service counters are per-shard relaxed atomics aggregated by Stats(), and
// the active-trip count is a single approximate atomic, so the per-point
// path takes no global lock at all.
//
// These contracts are machine-checked, not just documented: every guarded
// member carries an RL4OASD_GUARDED_BY annotation verified by Clang's
// -Wthread-safety (the clang CI job builds with it as -Werror), and in
// debug builds the common::Mutex rank checker asserts the
// shard -> trip -> model acquisition hierarchy — including FeedBatch's
// address-ordered same-rank wave locking — at runtime. See
// docs/STATIC_ANALYSIS.md and the lock-hierarchy table in
// docs/ARCHITECTURE.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>  // oasd-lint: allow(raw-mutex) — std::once_flag only (fingerprint memoization)
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/binary.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/rl4oasd.h"
#include "io/fleet_snapshot.h"
#include "serve/ingest_guard.h"
#include "traj/types.h"

namespace rl4oasd::serve {

class AlertDeliveryQueue;  // serve/delivery_queue.h
class IngestPipeline;      // serve/ingest_queue.h

/// An anomalous subtrajectory alert for one vehicle. Emitted as soon as the
/// detector finalizes an anomalous run — Delayed Labeling scans D more
/// segments past a boundary, so a run is reported once no future segment
/// can extend or merge it (at most D+1 segments after its last anomalous
/// point) — and at trip end or eviction for a run still open. Each run is
/// reported exactly once: run identity is maintained incrementally by the
/// session, so a DL merge can never re-report or skip a run.
struct Alert {
  int64_t vehicle_id = 0;
  traj::SdPair sd;
  /// Start time of the trip the alert belongs to. Together with vehicle_id
  /// this identifies the trip: delivery happens outside the shard lock, so
  /// an eviction notice for a vanished trip can arrive after the same
  /// vehicle already started a new one (see AlertSink).
  double trip_start_time = 0.0;
  /// Segment-index range of the anomalous run within the trip so far.
  traj::Subtrajectory range;
  /// Timestamp of the point that finalized the run.
  double timestamp = 0.0;
  /// Number of segments fed when the alert fired (detection latency metric:
  /// position - range.end counts segments between formation and alerting,
  /// including the D-segment Delayed-Labeling confirmation window).
  size_t position = 0;
};

/// Alert delivery interface. Delivery has two modes:
///
///   * Synchronous (default, FleetConfig::async_alerts == false): callbacks
///     are invoked under the reporting trip's lock — never under a shard
///     lock — and during a FeedBatch wave the other wave trips' locks (up
///     to FleetConfig::micro_batch of them) are also held, so a slow sink
///     stalls the whole wave, not just one trip.
///
///   * Asynchronous (FleetConfig::async_alerts == true): every callback is
///     captured by value as a DeliveryEvent, sequence-numbered *under the
///     reporting trip's lock*, and enqueued on a bounded delivery queue
///     (serve/delivery_queue.h); a dedicated drainer thread invokes the
///     sink in sequence order with **no monitor lock held**, so a slow sink
///     backs up only the queue — ingest keeps flowing until the queue
///     itself fills, at which point enqueueing blocks (bounded memory,
///     never a dropped event). Use FleetMonitor::Quiesce() to wait until
///     everything emitted so far has been delivered; the monitor's
///     destructor delivers the backlog before returning.
///
/// In both modes, implementations must not call back into the monitor: the
/// synchronous path would re-enter while holding trip locks, and an async
/// sink that feeds the monitor can deadlock against a full delivery queue
/// it is itself responsible for draining.
///
/// Delivery ordering (both modes): within one trip, callbacks arrive in
/// order — synchronously because they run under the trip's lock, and
/// asynchronously because events are sequenced under that same lock and the
/// drainer preserves sequence order. Across trips of the *same vehicle*
/// there is one caveat — a trip is removed from the routing table before
/// its final callbacks are delivered, so when an evicted vehicle
/// immediately starts a new trip, the old trip's OnAlert/OnTripEvicted can
/// interleave with the new trip's callbacks. Sinks that key state by
/// vehicle must use (vehicle_id, trip_start_time) as the trip identity.
class AlertSink {
 public:
  virtual ~AlertSink() = default;
  virtual void OnAlert(const Alert& alert) = 0;
  /// Called when a trip completes, with the final (post-DL) labels.
  virtual void OnTripEnd(int64_t vehicle_id,
                         const std::vector<uint8_t>& final_labels) {
    (void)vehicle_id;
    (void)final_labels;
  }
  /// Called when a trip is evicted (the vehicle vanished mid-trip, or the
  /// active-trip cap forced the stalest trip out) with the labels seen so
  /// far. An anomalous run still open at eviction is OnAlert-ed immediately
  /// before this call — eviction never silently drops an anomaly.
  virtual void OnTripEvicted(int64_t vehicle_id, double trip_start_time,
                             const std::vector<uint8_t>& labels_so_far) {
    (void)vehicle_id;
    (void)trip_start_time;
    (void)labels_so_far;
  }
  /// Called when a trip completes normally (EndTrip), immediately after
  /// OnTripEnd under the same trip lock, with the trip's full edge sequence
  /// alongside the final post-Delayed-Labeling labels. This is the label
  /// harvesting surface for online learning (serve::DriftAdapter): each
  /// finished trip is delivered exactly once, as a ready-made training
  /// sample. Evicted trips are *not* finalized — their labels are partial —
  /// so they fire OnTripEvicted only.
  virtual void OnTripFinalized(int64_t vehicle_id, traj::SdPair sd,
                               double start_time,
                               const std::vector<traj::EdgeId>& edges,
                               const std::vector<uint8_t>& final_labels) {
    (void)vehicle_id;
    (void)sd;
    (void)start_time;
    (void)edges;
    (void)final_labels;
  }
  /// Called when a trip exceeds its malformed-point budget and is
  /// quarantined (the detector stops consuming its points — see
  /// serve/ingest_guard.h for the lifecycle). Fires exactly once per
  /// quarantine episode, with the trip's lifetime malformed-point count at
  /// that moment. The trip later either recovers silently (points flow
  /// again) or is evicted through the usual OnTripEvicted path.
  virtual void OnTripQuarantined(int64_t vehicle_id, double trip_start_time,
                                 int64_t malformed_points) {
    (void)vehicle_id;
    (void)trip_start_time;
    (void)malformed_points;
  }
};

/// Thread-safe in-memory sink (tests, examples, tooling). Callbacks arrive
/// under trip locks (rank kFleetTrip), so mu_ sits at the default leaf rank.
class CollectingSink : public AlertSink {
 public:
  void OnAlert(const Alert& alert) override {
    common::MutexLock lock(&mu_);
    alerts_.push_back(alert);
  }
  void OnTripEnd(int64_t vehicle_id,
                 const std::vector<uint8_t>& final_labels) override {
    common::MutexLock lock(&mu_);
    finished_.emplace_back(vehicle_id, final_labels);
  }
  void OnTripEvicted(int64_t vehicle_id, double /*trip_start_time*/,
                     const std::vector<uint8_t>& labels_so_far) override {
    common::MutexLock lock(&mu_);
    evicted_.emplace_back(vehicle_id, labels_so_far);
  }

  std::vector<Alert> TakeAlerts() {
    common::MutexLock lock(&mu_);
    return std::move(alerts_);
  }
  size_t NumAlerts() const {
    common::MutexLock lock(&mu_);
    return alerts_.size();
  }
  size_t NumFinished() const {
    common::MutexLock lock(&mu_);
    return finished_.size();
  }
  size_t NumEvicted() const {
    common::MutexLock lock(&mu_);
    return evicted_.size();
  }
  std::vector<std::pair<int64_t, std::vector<uint8_t>>> TakeEvicted() {
    common::MutexLock lock(&mu_);
    return std::move(evicted_);
  }
  void OnTripQuarantined(int64_t vehicle_id, double trip_start_time,
                         int64_t malformed_points) override {
    common::MutexLock lock(&mu_);
    quarantined_.emplace_back(vehicle_id, trip_start_time);
    (void)malformed_points;
  }
  size_t NumQuarantined() const {
    common::MutexLock lock(&mu_);
    return quarantined_.size();
  }
  std::vector<std::pair<int64_t, double>> TakeQuarantined() {
    common::MutexLock lock(&mu_);
    return std::move(quarantined_);
  }

 private:
  mutable common::Mutex mu_;
  std::vector<Alert> alerts_ RL4OASD_GUARDED_BY(mu_);
  std::vector<std::pair<int64_t, std::vector<uint8_t>>> finished_
      RL4OASD_GUARDED_BY(mu_);
  std::vector<std::pair<int64_t, std::vector<uint8_t>>> evicted_
      RL4OASD_GUARDED_BY(mu_);
  std::vector<std::pair<int64_t, double>> quarantined_
      RL4OASD_GUARDED_BY(mu_);
};

/// One GPS-derived road segment of one vehicle, for batched ingest.
struct FleetPoint {
  int64_t vehicle_id = 0;
  traj::EdgeId edge = 0;
  double timestamp = 0.0;
};

/// What Submit does when a staging lane is full (see ingest_queue.h).
enum class OverloadPolicy {
  /// Wait for space: lossless, backpressure propagates to the submitter.
  kBlock,
  /// Drop the point and count it in FleetStats::points_shed: bounded
  /// latency, explicit loss. End-of-trip markers are never shed.
  kShed,
};

struct FleetConfig {
  /// Cap on simultaneously active trips. A StartTrip that admits a trip
  /// beyond it evicts the stalest trip. Slot reservation is atomic with
  /// admission (counted under the shard lock at insert), so concurrent
  /// admissions read distinct reservation indices and every over-cap
  /// admission pays for exactly one eviction: the count may transiently
  /// exceed the cap by the number of in-flight StartTrip calls, but in
  /// quiescence active <= max_active_trips holds exactly. A StartTrip that
  /// fails (duplicate vehicle) never touches the count and never evicts.
  size_t max_active_trips = 100000;
  /// Trips with no Feed for this long are evictable by EvictStale.
  double trip_timeout_s = 2 * 3600.0;
  /// Number of lock shards (power of two). Shard locks are held only for
  /// map mutation; model work runs under per-trip locks, so this bounds
  /// lookup contention, not detection parallelism.
  size_t num_shards = 16;
  /// Maximum number of trips whose model steps FeedBatch fuses into one
  /// batched forward (the micro-batch width). 1 disables fusion (every
  /// point takes the scalar streaming path). Larger widths amortize the
  /// RSRNet/ASDNet matmuls across trips but hold that many trip locks for
  /// the duration of one fused step.
  size_t micro_batch = 128;
  /// Number of ingest worker threads behind Submit/SubmitBatch. 0 disables
  /// the async ingest pipeline entirely (Submit fails; Feed/FeedBatch are
  /// the only ingest paths). Clamped to num_shards; shard s is served by
  /// lane s % ingest_workers, which preserves per-vehicle order.
  size_t ingest_workers = 0;
  /// Bound on staged points per ingest lane; overflow behavior is
  /// overload_policy. Sized in points: ~24 bytes each.
  size_t ingest_queue_capacity = 8192;
  /// Full-lane behavior for Submit/SubmitBatch.
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  /// Deliver AlertSink callbacks asynchronously (see the AlertSink contract
  /// above). Off by default: the synchronous path is the deterministic
  /// reference, and existing callers observe sink effects immediately on
  /// return from Feed/EndTrip.
  bool async_alerts = false;
  /// Bound on undelivered async sink events; enqueueing blocks when full
  /// (events are never dropped — see AlertSink).
  size_t alert_queue_capacity = 16384;
  /// The ingest input contract: per-anomaly-class policies, thresholds, and
  /// the quarantine budget (serve/ingest_guard.h). The defaults are
  /// observe-only — detection counters tick, nothing is dropped or
  /// repaired, quarantine is off — except that trip staleness is always
  /// routed through the guard's monotone per-trip clock, so a skewed or
  /// negative client timestamp can never mark a live trip stalest.
  IngestGuardConfig guard;
};

/// Service counters (monotonic since construction). Every field but
/// points_submitted, points_shed and alerts_delivered is one of the
/// io::FleetCounter counters that snapshots carry; fleet.cc binds each to
/// its field in one table.
struct FleetStats {
  int64_t trips_started = 0;
  int64_t trips_finished = 0;
  int64_t points_processed = 0;
  int64_t alerts_emitted = 0;
  int64_t trips_evicted = 0;
  /// Submit-path points accepted into a staging lane (0 when
  /// ingest_workers == 0; Feed/FeedBatch points count only in
  /// points_processed). After Quiesce, points_submitted ==
  /// points_processed' + skipped, where points_processed' is the
  /// Submit-path share and skipped are points whose vehicle had no trip.
  int64_t points_submitted = 0;
  /// Points dropped by OverloadPolicy::kShed (the overload signal; always 0
  /// under kBlock).
  int64_t points_shed = 0;
  /// OnAlert callbacks completed by the async delivery worker. Equals
  /// alerts_emitted once Quiesce returns; lags it by the queue backlog
  /// under load. With async_alerts off, mirrors alerts_emitted.
  int64_t alerts_delivered = 0;

  // -- Ingest-guard counters (serve/ingest_guard.h) ------------------------
  //
  // Per-class detections tick under every policy (kPassThrough included).
  // Disposition counters partition the points the guard removed:
  //   points offered to Feed/FeedBatch ==
  //       points_processed + points_rejected + points_quarantine_dropped
  // for points whose vehicle had an active trip.
  int64_t guard_duplicates = 0;
  int64_t guard_out_of_order = 0;
  int64_t guard_clock_skew = 0;
  int64_t guard_dropout_gaps = 0;
  int64_t guard_teleports = 0;
  int64_t guard_invalid_edges = 0;
  /// Points accepted with a repaired (clamped) timestamp.
  int64_t points_repaired = 0;
  /// Points dropped by a kReject/kRepair policy outside quarantine.
  int64_t points_rejected = 0;
  /// Points dropped because their trip was quarantined (including the
  /// tipping point).
  int64_t points_quarantine_dropped = 0;
  /// Quarantine episodes entered / recovered from; evictions forced by the
  /// quarantine point budget (a subset of trips_evicted).
  int64_t trips_quarantined = 0;
  int64_t trips_recovered = 0;
  int64_t quarantine_evictions = 0;
};

/// Concurrent multi-trip online detector over one trained model. The model
/// can be hot-swapped while serving (SwapModel), and the whole live state —
/// every in-flight trip's session plus the service counters — can be
/// snapshotted to a durable file and restored in a fresh process
/// (Snapshot/Restore) with a bit-identical remaining alert stream.
class FleetMonitor {
 public:
  /// Non-owning: `model` must outlive the monitor (and every model a later
  /// SwapModel retires must outlive the trips still pinned to it). `sink`
  /// may be null (alerts are then only counted).
  FleetMonitor(const core::Rl4Oasd* model, FleetConfig config,
               AlertSink* sink);

  /// Owning variant: the monitor shares ownership of the model, which is
  /// what SwapModel's retire-when-last-trip-releases semantics want.
  FleetMonitor(std::shared_ptr<const core::Rl4Oasd> model, FleetConfig config,
               AlertSink* sink);

  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  /// Stops the ingest workers (after they drain every staged point) and
  /// delivers any queued async sink events, in that order.
  ~FleetMonitor();

  /// Begins a trip for a vehicle. The SD pair is known at trip start in the
  /// ride-hailing setting. Fails if the vehicle already has an active trip.
  Status StartTrip(int64_t vehicle_id, traj::SdPair sd, double start_time);

  /// Feeds the next road segment of a vehicle's active trip. Returns the
  /// (pre-delayed-labeling) label of the segment, emitting alerts to the
  /// sink when an anomalous run becomes final.
  Result<int> Feed(int64_t vehicle_id, traj::EdgeId edge, double timestamp);

  /// Batched ingest with micro-batching: resolves every point's trip with
  /// one shard-lock acquisition per shard, then advances the trips in
  /// *waves* — one point per trip per wave, with the model steps of up to
  /// `micro_batch` trips fused into one batched forward
  /// (OnlineDetector::FeedBatch), so the recurrent gate matmuls of the
  /// whole wave run as GEMMs instead of per-trip matvecs. Per-trip results
  /// (labels, alerts, run boundaries, counters) are identical to feeding
  /// each point through Feed; a vehicle's points keep their relative order
  /// (successive points of one vehicle land in successive waves). Points
  /// without an active trip are skipped; points whose trip ends mid-batch
  /// fall back to Feed, which re-resolves (delivering to the vehicle's next
  /// trip if one already started). Returns the number of points fed.
  ///
  /// A wave locks all its trips for the duration of the fused step, in a
  /// globally consistent order (Trip address), so concurrent FeedBatch
  /// calls cannot deadlock; sink callbacks during a wave therefore run
  /// with other trips' locks also held and must not call back into the
  /// monitor (already the AlertSink contract).
  size_t FeedBatch(std::span<const FleetPoint> points);

  /// Completes a trip, returning the final post-processed labels. Runs not
  /// yet alerted (including one still open at the destination) are alerted
  /// before return.
  Result<std::vector<uint8_t>> EndTrip(int64_t vehicle_id);

  // -- Asynchronous ingest (requires FleetConfig::ingest_workers > 0) ------
  //
  // Submit* stage work on bounded per-shard lanes and return; worker
  // threads assemble the staged points into FeedBatch waves adaptively (see
  // serve/ingest_queue.h for the flush policy and the ordering
  // guarantees). Feed/FeedBatch above remain the synchronous reference
  // path: after Quiesce(), a Submit-driven run produces the identical
  // per-vehicle label/alert/trip-end sequences.

  /// Stages one point for the vehicle's active trip. Non-blocking except
  /// for backpressure: under OverloadPolicy::kBlock a full lane makes it
  /// wait for space; under kShed a full lane drops the point, counts it in
  /// points_shed, and returns ResourceExhausted. FailedPrecondition when
  /// the pipeline is disabled (ingest_workers == 0).
  Status Submit(const FleetPoint& point);

  /// Stages a batch (split across lanes by vehicle; per-vehicle order
  /// preserved). Returns the number of points accepted — equal to
  /// points.size() under kBlock, possibly fewer under kShed. Returns 0 if
  /// the pipeline is disabled.
  size_t SubmitBatch(std::span<const FleetPoint> points);

  /// Stages an end-of-trip marker behind everything the vehicle has
  /// submitted so far; the lane worker calls EndTrip once the points ahead
  /// of it are fed (final labels go to the sink, not returned). Never shed.
  /// FailedPrecondition when the pipeline is disabled.
  Status SubmitEndTrip(int64_t vehicle_id);

  /// Drains the pipeline: blocks until every staged point/end marker has
  /// been fed AND every async sink event emitted by that work has been
  /// delivered. After Quiesce, Stats() and sink contents are exact (the
  /// conservation identity holds) and a Submit-driven run is comparable
  /// point-for-point with the synchronous reference. No-op when both
  /// features are off.
  void Quiesce();

  /// Drops trips whose last update is older than `now - trip_timeout_s`
  /// (vehicles that vanished mid-trip). A still-open anomalous run is
  /// alerted and the sink's OnTripEvicted hook fires for every dropped
  /// trip. Returns the number evicted.
  size_t EvictStale(double now);

  /// Active-trip count, maintained as an O(1) approximate counter: exact in
  /// quiescence, momentarily off by in-flight starts/ends under concurrency.
  size_t ActiveTrips() const;
  FleetStats Stats() const;

  /// Input health of a vehicle's active trip in [0, 1]: 1 with an empty
  /// strike bucket, 0 when quarantined (IngestGuard::HealthScore). NotFound
  /// when the vehicle has no active trip.
  Result<double> TripHealth(int64_t vehicle_id);

  /// True when the vehicle's active trip is currently quarantined.
  Result<bool> TripQuarantined(int64_t vehicle_id);

  /// Plain-text metrics dump: every FleetStats counter plus the active-trip
  /// gauge and model generation, one `name value` line each, sorted stable.
  /// The serving-side metrics endpoint (oasd_simulate prints it in its
  /// end-of-run summary; DriftAdapter::DumpMetrics appends the drift loop).
  std::string DumpMetrics() const;

  /// Drains the async delivery queue's enqueue→delivery latency samples
  /// (nanoseconds, most recent window; reporting-only — see
  /// delivery_queue.h). Empty when async_alerts is off.
  std::vector<int64_t> TakeAlertLatencySamplesNs();

  /// Atomically hot-reloads a new model bundle under concurrent ingest and
  /// returns the retired model. New trips start on the new model
  /// immediately; each in-flight trip migrates lazily, under its own trip
  /// lock, the next time a point reaches it: its hidden state is re-primed
  /// deterministically by replaying the trip's edge history through the new
  /// RSRNet, while the label/run/RNG bookkeeping carries over verbatim — so
  /// no alert is lost or duplicated across the swap
  /// (core::OnlineDetector::ReprimeSession). The old model is retired via
  /// shared_ptr handoff: it is destroyed once the last trip still pinned to
  /// it migrates or finishes (immediately, for the returned handle's last
  /// owner). The new model must serve the same road network; in-flight
  /// trips keep their original Delayed-Labeling window, so swaps assume an
  /// unchanged detector config (the concept-drift refresh case).
  ///
  /// Fine-tuned refreshes come in as *separate instances with different
  /// bytes* — that contract is enforced: a handle whose io::ModelFingerprint
  /// equals the current one is rejected as a no-op (the incoming model is
  /// returned unchanged, the generation does not advance, and no trip pays a
  /// pointless re-prime). A degenerate self-swap logs a warning; it is a
  /// caller bug, not a served state change.
  ///
  /// A std::unique_ptr<core::Rl4Oasd> converts implicitly — pass a freshly
  /// fine-tuned model straight in.
  std::shared_ptr<const core::Rl4Oasd> SwapModel(
      std::shared_ptr<const core::Rl4Oasd> model);

  /// The model currently serving new points (shared ownership; the pointer
  /// outlives a concurrent SwapModel).
  std::shared_ptr<const core::Rl4Oasd> model() const;

  /// Monotonic model generation: 1 for the construction model, +1 per
  /// SwapModel. Exposed for tests and observability.
  uint64_t ModelGeneration() const;

  /// Serializes the full live state — header (format version, the current
  /// model's io::ModelFingerprint, `user_meta`), service counters, and
  /// every in-flight trip's session — into `w` (io::fleet_snapshot.h owns
  /// the format; append to a file with BinaryWriter::WriteToFile, which
  /// adds the CRC32 footer). Shard by shard, the trip map is copied under
  /// the shard lock and each trip is then serialized under its own trip
  /// lock, so ingest keeps flowing for every other trip while a snapshot is
  /// taken; a trip pinned to an older model is migrated to the current one
  /// first, so the whole snapshot is stamped by one fingerprint.
  ///
  /// The restore-equivalence contract: snapshot at any point of a quiesced
  /// monitor (or any per-trip feed boundary), Restore into a fresh monitor
  /// over a model with the same fingerprint, and the remaining
  /// alert/trip-end/eviction stream is bit-identical to the uninterrupted
  /// run. Under live ingest each trip record is internally consistent (it
  /// serializes at a feed boundary), but the counters and different trips
  /// may be offset by in-flight points.
  Status Snapshot(BinaryWriter* w, std::string_view user_meta = {});

  /// One restored trip, reported so replay drivers (oasd_simulate
  /// --resume-from) can rebuild their cursors.
  struct RestoredTrip {
    int64_t vehicle_id = 0;
    traj::SdPair sd;
    double start_time = 0.0;
    size_t points_fed = 0;
  };
  struct RestoreInfo {
    std::string user_meta;
    std::vector<RestoredTrip> trips;
  };

  /// Restores a snapshot written by Snapshot into this monitor, which must
  /// be empty (fresh-process restore) and must serve a model whose
  /// fingerprint equals the snapshot's stamp — a mismatch, a bad magic, an
  /// unknown format version, or any corrupt/lying field returns a
  /// descriptive error without crashing, and a failed restore leaves the
  /// monitor empty. Service counters resume from their snapshot values so
  /// conservation (started == finished + evicted + active) spans the
  /// restart. Not thread-safe against concurrent ingest (call before
  /// serving starts).
  Status Restore(BinaryReader* r, RestoreInfo* info = nullptr);

 private:
  /// A model plus its swap bookkeeping. Trips pin the handle they were last
  /// primed against; the monitor holds the current one. Logically immutable
  /// after construction, so readers only need the pointer; the fingerprint
  /// is computed lazily (it serializes the whole model, which monitors that
  /// never snapshot should not pay for) and memoized thread-safely.
  struct ModelHandle {
    std::shared_ptr<const core::Rl4Oasd> model;
    uint64_t generation = 0;

    /// io::ModelFingerprint of `model`, computed on first use.
    uint64_t Fingerprint() const;

   private:
    mutable std::once_flag fingerprint_once_;
    mutable uint64_t fingerprint_ = 0;
  };

  struct Trip {
    Trip(core::OnlineDetector::Session s, traj::SdPair sd_in, double t0,
         std::shared_ptr<const ModelHandle> h)
        : session(std::move(s)),
          handle(std::move(h)),
          sd(sd_in),
          start_time(t0),
          last_update(t0) {
      guard.mono_ts = t0;  // the monotone clock seeds from trip start
    }

    /// Guards session, handle, and finished. Rank kFleetTrip: multiple trip
    /// locks are held together only by FeedBatch waves, in ascending
    /// address order (what the debug checker's same-rank rule asserts).
    common::Mutex mu{common::lockrank::kFleetTrip};
    core::OnlineDetector::Session session RL4OASD_GUARDED_BY(mu);
    /// The model the session is currently primed against. Lags the
    /// monitor's current handle until the next point reaches this trip
    /// (lazy migration); keeps the retired model alive until then.
    std::shared_ptr<const ModelHandle> handle RL4OASD_GUARDED_BY(mu);
    const traj::SdPair sd;
    const double start_time;
    /// Atomic so eviction scans can read it without the trip lock.
    /// Relaxed ordering is deliberate: readers (EvictStale/EvictStalest)
    /// only rank staleness, so a stale value merely delays or spares one
    /// eviction — it never corrupts state.
    std::atomic<double> last_update;
    /// Set (under mu) by whichever caller removed the trip from its shard
    /// map — EndTrip or an eviction. A Feed that resolved the trip pointer
    /// before removal observes it and re-resolves from the map instead of
    /// feeding a dead session (delivering the point to the vehicle's next
    /// trip if one already started, else reporting NotFound).
    bool finished RL4OASD_GUARDED_BY(mu) = false;
    /// Ingest-guard validator state (monotone clock, position, strike
    /// bucket, quarantine lifecycle). Serialized with the session into
    /// fleet snapshots.
    IngestGuard::State guard RL4OASD_GUARDED_BY(mu);
  };

  struct alignas(64) Shard {
    /// Guards `trips` (the map itself, never the Trips behind the
    /// pointers). Held only for insert/lookup/erase — rank kFleetShard, the
    /// bottom of the hierarchy, so nothing else may be acquired under it.
    mutable common::Mutex mu{common::lockrank::kFleetShard};
    std::unordered_map<int64_t, std::shared_ptr<Trip>> trips
        RL4OASD_GUARDED_BY(mu);
    /// Monotonic service counters, one per io::FleetCounter, bumped with
    /// relaxed ordering. Relaxed is deliberate (audited): each counter is
    /// independent — nothing reads two of them transactionally — and Stats()
    /// only needs per-counter totals, which the quiesce/join edge preceding
    /// any exact assertion already orders. Per-shard so concurrent ingest
    /// never contends on one line.
    std::array<std::atomic<int64_t>, io::kNumFleetCounters> counters{};
  };

  /// Bumps one of the shard's counters by `n`.
  static void Count(Shard* shard, io::FleetCounter c, int64_t n = 1) {
    shard->counters[static_cast<size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  size_t ShardIndexOf(int64_t vehicle_id) const {
    return static_cast<uint64_t>(vehicle_id) & (shards_.size() - 1);
  }
  Shard& ShardOf(int64_t vehicle_id) { return shards_[ShardIndexOf(vehicle_id)]; }

  /// Looks up a trip under the shard lock; null when absent.
  std::shared_ptr<Trip> ResolveTrip(Shard& shard, int64_t vehicle_id);

  /// Drains the session's newly finalized runs and delivers them to the
  /// sink. Caller holds trip->mu (compiler-enforced).
  void EmitNewRuns(int64_t vehicle_id, Trip* trip, Shard* shard,
                   double timestamp) RL4OASD_REQUIRES(trip->mu);

  /// Finishes a trip already removed from its shard map by eviction:
  /// alerts the open tail, fires OnTripEvicted, updates counters. Acquires
  /// trip->mu itself — callers must not hold it.
  void FinishEvicted(int64_t vehicle_id, Trip* trip, Shard* shard)
      RL4OASD_EXCLUDES(trip->mu);

  /// Evicts the least-recently-updated trip across all shards (requires no
  /// lock held by the caller). Retries internally when a race removes the
  /// chosen victim first; returns false only when no evictable trip was
  /// found at all, so over-cap admissions can loop until the cap holds.
  bool EvictStalest();

  /// What the per-point guard application tells the ingest path to do.
  struct GuardVerdict {
    bool accept = true;
    /// The trip exhausted its quarantine point budget; the caller must
    /// remove it (with no trip lock held — EvictQuarantined).
    bool evict = false;
  };

  /// Runs the ingest guard over one point under the trip's lock: advances
  /// the trip's guard state, bumps the per-class/disposition counters,
  /// fires OnTripQuarantined on a quarantine entry, and rewrites
  /// `*timestamp` to the trip's monotone clock (what last_update and alert
  /// timestamps record).
  GuardVerdict ApplyGuard(int64_t vehicle_id, Trip* trip, Shard* shard,
                          traj::EdgeId edge, double* timestamp)
      RL4OASD_REQUIRES(trip->mu);

  /// Identity-checked removal of a quarantine-evicted trip: erases it from
  /// its shard map (no-op if EndTrip or another eviction won the race) and
  /// finishes it with the silent-eviction guarantees. Caller must hold no
  /// trip or shard lock; `trip` must be kept alive by the caller.
  void EvictQuarantined(int64_t vehicle_id, Trip* trip)
      RL4OASD_EXCLUDES(trip->mu);

  // Sink dispatch: inline under the caller's trip lock (synchronous mode)
  // or value-captured onto the delivery queue (async_alerts). All no-ops
  // when sink_ is null. Counter bumps stay at the call sites.
  void SinkAlert(const Alert& alert);
  void SinkTripEnd(int64_t vehicle_id, const std::vector<uint8_t>& labels);
  void SinkTripEvicted(int64_t vehicle_id, double start_time,
                       const std::vector<uint8_t>& labels);
  void SinkTripFinalized(int64_t vehicle_id, traj::SdPair sd,
                         double start_time,
                         const std::vector<traj::EdgeId>& edges,
                         const std::vector<uint8_t>& labels);
  void SinkTripQuarantined(int64_t vehicle_id, double start_time,
                           int64_t malformed_points);

  /// The current model handle (shared_ptr copy under model_mu_, so a
  /// concurrent SwapModel can never hand out a torn read).
  std::shared_ptr<const ModelHandle> CurrentHandle() const;

  /// Migrates a trip to `handle` by re-priming its session against that
  /// model. Caller holds trip->mu (compiler-enforced).
  void ReprimeLocked(Trip* trip,
                     const std::shared_ptr<const ModelHandle>& handle)
      RL4OASD_REQUIRES(trip->mu);

  FleetConfig config_;
  AlertSink* sink_;
  /// The input-contract validator (stateless; per-trip state lives in
  /// Trip::guard). Pinned to the construction model's road network, which
  /// SwapModel requires to stay unchanged.
  IngestGuard guard_;
  std::vector<Shard> shards_;
  std::atomic<int64_t> active_trips_{0};
  /// Async alert delivery (async_alerts && sink). Declared before ingest_
  /// and torn down after it in ~FleetMonitor: the ingest workers are
  /// producers of delivery events, so they must stop first.
  std::unique_ptr<AlertDeliveryQueue> delivery_;
  /// Async ingest lanes + workers (ingest_workers > 0).
  std::unique_ptr<IngestPipeline> ingest_;
  /// Guards model_handle_ (the pointer only). Rank kFleetModel: acquired
  /// under a trip lock by the lazy-migration path.
  mutable common::Mutex model_mu_{common::lockrank::kFleetModel};
  std::shared_ptr<const ModelHandle> model_handle_
      RL4OASD_GUARDED_BY(model_mu_);
  /// Mirror of model_handle_->generation, readable without model_mu_: the
  /// per-point Feed path compares it against the trip's pinned generation
  /// and only pays the mutex + shared_ptr copy when a swap actually
  /// happened (a stale read just delays migration by one point, which is
  /// indistinguishable from the point arriving before the swap).
  std::atomic<uint64_t> current_generation_{0};
};

}  // namespace rl4oasd::serve
