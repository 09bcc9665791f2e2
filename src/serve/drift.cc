#include "serve/drift.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "core/detector.h"
#include "core/preprocess.h"
#include "eval/metrics.h"
#include "io/model_io.h"

namespace rl4oasd::serve {

// ---------------------------------------------------------------------------
// DriftDetector

bool DriftDetector::ObserveTrip(size_t segments, size_t anomalous_segments,
                                size_t nrf_anomalous_segments) {
  if (segments == 0) return false;
  // Post-swap cooldown: swallow whole trips until the budget drains, so the
  // new reference is collected from post-transition traffic only. Trip
  // granularity (rather than splitting a trip across the boundary) keeps
  // every window's statistics internally consistent.
  if (stats_.cooldown_points_remaining > 0) {
    const size_t used = std::min(stats_.cooldown_points_remaining, segments);
    stats_.cooldown_points_remaining -= used;
    return false;
  }
  const bool was_fired = fired_;
  win_segments_ += segments;
  win_anomalous_ += anomalous_segments;
  win_nrf_ += nrf_anomalous_segments;
  if (win_segments_ >= config_.window_points) CloseWindow();
  return fired_ && !was_fired;
}

void DriftDetector::CloseWindow() {
  const double n = static_cast<double>(win_segments_);
  const double alert_rate = static_cast<double>(win_anomalous_) / n;
  const double nrf_rate = static_cast<double>(win_nrf_) / n;
  win_segments_ = 0;
  win_anomalous_ = 0;
  win_nrf_ = 0;
  ++stats_.windows_completed;
  stats_.last_alert_rate = alert_rate;
  stats_.last_nrf_rate = nrf_rate;

  if (!armed_) {
    ref_alert_sum_ += alert_rate;
    ref_nrf_sum_ += nrf_rate;
    if (++ref_windows_seen_ >= config_.reference_windows) {
      armed_ = true;
      stats_.ref_alert_rate = ref_alert_sum_ / ref_windows_seen_;
      stats_.ref_nrf_rate = ref_nrf_sum_ / ref_windows_seen_;
    }
    return;
  }

  // One-sided CUSUM (accumulated excess over reference + allowance) plus an
  // immediate two-window ratio test, per channel. Either crossing latches.
  const auto shifted = [this](double rate, double ref, double* cusum) {
    *cusum = std::max(0.0, *cusum + (rate - ref - config_.cusum_k));
    if (*cusum > config_.cusum_h) return true;
    return rate > ref * config_.ratio_threshold &&
           rate - ref > config_.min_abs_shift;
  };
  const bool alert_shift =
      shifted(alert_rate, stats_.ref_alert_rate, &stats_.cusum_alert);
  const bool nrf_shift =
      shifted(nrf_rate, stats_.ref_nrf_rate, &stats_.cusum_nrf);
  if (alert_shift || nrf_shift) fired_ = true;
}

void DriftDetector::Reset(size_t cooldown_points) {
  const uint64_t windows = stats_.windows_completed;
  stats_ = Stats{};
  stats_.windows_completed = windows;
  stats_.cooldown_points_remaining = cooldown_points;
  armed_ = false;
  fired_ = false;
  win_segments_ = win_anomalous_ = win_nrf_ = 0;
  ref_windows_seen_ = 0;
  ref_alert_sum_ = ref_nrf_sum_ = 0.0;
}

// ---------------------------------------------------------------------------
// DriftAdapter

DriftAdapter::DriftAdapter(const roadnet::RoadNetwork* net,
                           std::shared_ptr<const core::Rl4Oasd> model,
                           FleetConfig fleet_config, DriftConfig drift_config,
                           AlertSink* downstream)
    : net_(net),
      fleet_config_(fleet_config),
      config_(std::move(drift_config)),
      downstream_(downstream),
      detector_(config_) {
  monitor_ = std::make_unique<FleetMonitor>(std::move(model), fleet_config_,
                                            this);
  if (config_.background) {
    worker_ = std::thread(&DriftAdapter::WorkerLoop, this);
  }
}

DriftAdapter::~DriftAdapter() {
  {
    common::MutexLock lock(&pending_mu_);
    stop_ = true;
  }
  pending_cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
}

void DriftAdapter::OnAlert(const Alert& alert) {
  if (downstream_ != nullptr) downstream_->OnAlert(alert);
}

void DriftAdapter::OnTripEnd(int64_t vehicle_id,
                             const std::vector<uint8_t>& final_labels) {
  if (downstream_ != nullptr) downstream_->OnTripEnd(vehicle_id, final_labels);
}

void DriftAdapter::OnTripEvicted(int64_t vehicle_id, double trip_start_time,
                                 const std::vector<uint8_t>& labels_so_far) {
  if (downstream_ != nullptr) {
    downstream_->OnTripEvicted(vehicle_id, trip_start_time, labels_so_far);
  }
}

void DriftAdapter::OnTripFinalized(int64_t vehicle_id, traj::SdPair sd,
                                   double start_time,
                                   const std::vector<traj::EdgeId>& edges,
                                   const std::vector<uint8_t>& final_labels) {
  if (downstream_ != nullptr) {
    downstream_->OnTripFinalized(vehicle_id, sd, start_time, edges,
                                 final_labels);
  }
  // Under the reporting trip's lock (possibly a whole FeedBatch wave's trip
  // locks): only buffer, never touch the monitor or the loop state.
  traj::LabeledTrajectory lt;
  lt.traj.id = vehicle_id;
  lt.traj.edges = edges;
  lt.traj.start_time = start_time;
  lt.labels = final_labels;
  {
    common::MutexLock lock(&pending_mu_);
    pending_.push_back(std::move(lt));
  }
  pending_cv_.NotifyOne();
}

bool DriftAdapter::Poll() {
  if (config_.background) return false;
  return DrainAndMaybeAdapt();
}

bool DriftAdapter::DrainAndMaybeAdapt() {
  std::deque<traj::LabeledTrajectory> drained;
  {
    common::MutexLock lock(&pending_mu_);
    drained.swap(pending_);
  }
  // NRF counts are computed at drain time against the *current* model's
  // statistics (not at finalize time): the NRF channel asks "does the live
  // historical picture recognize this route as normal", which is exactly
  // what a swap refreshes.
  const std::shared_ptr<const core::Rl4Oasd> live = monitor_->model();
  bool run_cycle = false;
  {
    common::MutexLock lock(&state_mu_);
    for (auto& lt : drained) {
      const size_t segments = lt.traj.edges.size();
      size_t anomalous = 0;
      for (uint8_t l : lt.labels) anomalous += l;
      size_t nrf_anomalous = 0;
      for (uint8_t f : live->preprocessor().NormalRouteFeatures(lt.traj)) {
        nrf_anomalous += f;
      }
      if (backoff_points_ > 0) {
        backoff_points_ -= std::min(backoff_points_, segments);
      }
      if (detector_.ObserveTrip(segments, anomalous, nrf_anomalous)) {
        ++status_.drift_events;
        // The change point is behind us: everything harvested before the
        // trigger is pre-drift traffic that would dilute the fine-tune
        // statistics (route fractions must clear delta on *post-drift*
        // data), so the buffer restarts at the trigger.
        buffer_.clear();
      }
      ++status_.trips_harvested;
      buffer_.push_back(std::move(lt));
      if (buffer_.size() > config_.max_buffer_trips) {
        buffer_.pop_front();
        ++status_.buffer_evictions;
      }
    }
    if (detector_.fired() && backoff_points_ == 0 &&
        buffer_.size() >= config_.min_buffer_trips) {
      run_cycle = true;
      ++status_.cycles_started;
    }
  }
  if (!run_cycle) return false;
  RunAdaptationCycle();
  return true;
}

void DriftAdapter::RunAdaptationCycle() {
  std::vector<traj::LabeledTrajectory> buffer_copy;
  {
    common::MutexLock lock(&state_mu_);
    buffer_copy.assign(buffer_.begin(), buffer_.end());
  }
  const std::shared_ptr<const core::Rl4Oasd> live = monitor_->model();
  const traj::Dataset buffer_ds(buffer_copy);

  // Abort one cycle without losing the drift signal: back off so the loop
  // does not spin, keep the CUSUM saturated so a persisting drift retries
  // after the backoff drains.
  // `rl4oasd::Status` spelled in full: the Status() accessor shadows the
  // type name inside DriftAdapter's member scope.
  const auto abort_cycle = [this](const char* what,
                                  const rl4oasd::Status& why) {
    RL4_LOG(Warning) << "drift adaptation cycle aborted (" << what
                     << "): " << why.ToString();
    common::MutexLock lock(&state_mu_);
    ++status_.cycle_errors;
    backoff_points_ = config_.reject_backoff_points;
    detector_.ClearFire();
  };

  // --- fine-tune: candidate = clone of the serving model, trained on the
  // post-change-point buffer, entirely off the ingest path.
  std::shared_ptr<core::Rl4Oasd> candidate;
  if (config_.candidate_factory) {
    candidate = config_.candidate_factory(*live, buffer_ds);
  } else {
    auto cloned = io::CloneModel(net_, *live);
    if (!cloned.ok()) {
      abort_cycle("clone", cloned.status());
      return;
    }
    candidate = std::move(cloned).value();
    candidate->FineTune(buffer_ds, config_.fine_tune_max_samples);
  }
  if (candidate == nullptr) {
    abort_cycle("candidate factory",
                rl4oasd::Status::Internal("factory returned null"));
    return;
  }
  if (io::ModelFingerprint(*candidate) == io::ModelFingerprint(*live)) {
    // Byte-identical candidate: it cannot change served behaviour, and
    // SwapModel would rightly reject it as a degenerate self-swap.
    RecordGateResult(/*promoted=*/false, 0.0, 0.0, 0);
    return;
  }

  // --- gate reference: weak-supervision labels from a preprocessor fitted
  // on the post-drift buffer alone — the freshest unbiased statistics both
  // contestants are scored against (neither model's own labels referee).
  core::Preprocessor gate_pp(live->config().preprocess);
  gate_pp.Fit(buffer_ds);
  const int delay_d = live->config().detector.delay_d;
  const size_t n_shadow = std::min(config_.shadow_trips, buffer_copy.size());
  const std::vector<traj::LabeledTrajectory> shadow(
      buffer_copy.end() - static_cast<ptrdiff_t>(n_shadow), buffer_copy.end());
  std::vector<std::vector<uint8_t>> reference;
  reference.reserve(shadow.size());
  for (const auto& lt : shadow) {
    std::vector<uint8_t> labels = gate_pp.NoisyLabels(lt.traj);
    core::ApplyDelayedLabeling(&labels, delay_d);
    reference.push_back(std::move(labels));
  }

  // --- shadow fork: snapshot the live fleet and restore it twice, so both
  // contestants replay the exact same stream from the exact same in-flight
  // state. The candidate shadow swaps to the candidate and takes a
  // throwaway snapshot, which forces every restored trip through a
  // re-prime — proving the candidate can serve the live state before the
  // real fleet ever sees it.
  BinaryWriter snap;
  rl4oasd::Status st = monitor_->Snapshot(&snap);
  if (!st.ok()) {
    abort_cycle("snapshot", st);
    return;
  }
  FleetConfig shadow_cfg = fleet_config_;
  shadow_cfg.max_active_trips = fleet_config_.max_active_trips + n_shadow + 16;

  FleetMonitor live_shadow(live, shadow_cfg, nullptr);
  BinaryReader live_reader(snap.buffer());
  st = live_shadow.Restore(&live_reader);
  if (!st.ok()) {
    abort_cycle("live-shadow restore", st);
    return;
  }
  FleetMonitor cand_shadow(live, shadow_cfg, nullptr);
  BinaryReader cand_reader(snap.buffer());
  st = cand_shadow.Restore(&cand_reader);
  if (!st.ok()) {
    abort_cycle("candidate-shadow restore", st);
    return;
  }
  cand_shadow.SwapModel(candidate);
  BinaryWriter reprime_probe;
  st = cand_shadow.Snapshot(&reprime_probe);
  if (!st.ok()) {
    abort_cycle("candidate re-prime", st);
    return;
  }

  const std::vector<std::vector<uint8_t>> live_labels =
      ReplayShadow(&live_shadow, shadow);
  const std::vector<std::vector<uint8_t>> cand_labels =
      ReplayShadow(&cand_shadow, shadow);

  eval::F1Evaluator live_eval;
  eval::F1Evaluator cand_eval;
  uint64_t divergent = 0;
  for (size_t i = 0; i < shadow.size(); ++i) {
    if (live_labels[i].size() != reference[i].size() ||
        cand_labels[i].size() != reference[i].size()) {
      continue;  // trip could not be replayed in one of the shadows
    }
    live_eval.Add(reference[i], live_labels[i]);
    cand_eval.Add(reference[i], cand_labels[i]);
    if (live_labels[i] != cand_labels[i]) ++divergent;
  }
  const double live_f1 = live_eval.Compute().f1;
  const double cand_f1 = cand_eval.Compute().f1;
  const bool promote = cand_f1 >= live_f1 + config_.promote_min_gain;

  if (promote) monitor_->SwapModel(std::move(candidate));
  RecordGateResult(promote, live_f1, cand_f1, divergent);
}

void DriftAdapter::RecordGateResult(bool promoted, double live_f1,
                                    double cand_f1, uint64_t divergent) {
  common::MutexLock lock(&state_mu_);
  status_.last_live_score = live_f1;
  status_.last_candidate_score = cand_f1;
  status_.last_shadow_divergent_trips = divergent;
  if (promoted) {
    ++status_.promotions;
    // New model, new stationary regime: re-arm from scratch and let the
    // buffer refill with traffic labeled by the promoted model.
    buffer_.clear();
    backoff_points_ = 0;
    detector_.Reset(config_.post_swap_cooldown_points);
  } else {
    ++status_.rejections;
    backoff_points_ = config_.reject_backoff_points;
    detector_.ClearFire();
  }
}

std::vector<std::vector<uint8_t>> DriftAdapter::ReplayShadow(
    FleetMonitor* m, const std::vector<traj::LabeledTrajectory>& trips) {
  std::vector<std::vector<uint8_t>> out;
  out.reserve(trips.size());
  // Synthetic vehicle ids far above any real fleet's range, so shadow trips
  // can never collide with the restored live trips.
  int64_t vehicle_id = int64_t{1} << 62;
  for (const auto& lt : trips) {
    const traj::MapMatchedTrajectory& t = lt.traj;
    if (t.edges.size() < 2) {
      out.emplace_back();
      continue;
    }
    ++vehicle_id;
    if (!m->StartTrip(vehicle_id, t.sd(), t.start_time).ok()) {
      out.emplace_back();
      continue;
    }
    double ts = t.start_time;
    for (const traj::EdgeId edge : t.edges) {
      (void)m->Feed(vehicle_id, edge, ts);
      ts += 1.0;
    }
    auto final_labels = m->EndTrip(vehicle_id);
    out.push_back(final_labels.ok() ? std::move(final_labels).value()
                                    : std::vector<uint8_t>{});
  }
  return out;
}

void DriftAdapter::WorkerLoop() {
  for (;;) {
    {
      common::MutexLock lock(&pending_mu_);
      while (!stop_ && pending_.empty()) pending_cv_.Wait(&pending_mu_);
      if (stop_ && pending_.empty()) return;
    }
    DrainAndMaybeAdapt();
  }
}

std::string DriftAdapter::DumpMetrics() const {
  std::string out = monitor_->DumpMetrics();
  const DriftStatus s = Status();
  const auto line = [&out](std::string_view name, int64_t value) {
    out.append(name);
    out.push_back(' ');
    out.append(std::to_string(value));
    out.push_back('\n');
  };
  line("harvest_trips", static_cast<int64_t>(s.trips_harvested));
  line("harvest_buffer_trips", static_cast<int64_t>(s.buffer_trips));
  line("harvest_buffer_evictions", static_cast<int64_t>(s.buffer_evictions));
  line("harvest_pending_trips", static_cast<int64_t>(s.pending_trips));
  line("drift_detector_armed", s.detector_armed ? 1 : 0);
  line("drift_pending", s.drift_pending ? 1 : 0);
  line("drift_events", static_cast<int64_t>(s.drift_events));
  line("drift_cycles_started", static_cast<int64_t>(s.cycles_started));
  line("drift_promotions", static_cast<int64_t>(s.promotions));
  line("drift_rejections", static_cast<int64_t>(s.rejections));
  line("drift_cycle_errors", static_cast<int64_t>(s.cycle_errors));
  line("drift_backoff_points_remaining",
       static_cast<int64_t>(s.backoff_points_remaining));
  line("drift_detector_windows",
       static_cast<int64_t>(s.detector.windows_completed));
  return out;
}

DriftStatus DriftAdapter::Status() const {
  DriftStatus s;
  {
    common::MutexLock lock(&state_mu_);
    s = status_;
    s.buffer_trips = buffer_.size();
    s.detector_armed = detector_.armed();
    s.drift_pending = detector_.fired();
    s.backoff_points_remaining = backoff_points_;
    s.detector = detector_.stats();
  }
  {
    common::MutexLock lock(&pending_mu_);
    s.pending_trips = pending_.size();
  }
  s.model_generation = monitor_->ModelGeneration();
  return s;
}

}  // namespace rl4oasd::serve
