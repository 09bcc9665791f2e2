#include "core/detector.h"

#include "common/logging.h"

namespace rl4oasd::core {

void ApplyDelayedLabeling(std::vector<uint8_t>* labels, int delay_d) {
  if (delay_d <= 0) return;
  auto& l = *labels;
  const int n = static_cast<int>(l.size());
  int last_one = -1;
  for (int i = 0; i < n; ++i) {
    if (!l[i]) continue;
    // A boundary formed at `last_one`; the D-segment lookahead scans D more
    // segments past it, so this 1 at `i` merges when the zero gap
    // (i - last_one - 1) is at most D.
    if (last_one >= 0 && i - last_one <= delay_d + 1 && i - last_one > 1) {
      for (int k = last_one + 1; k < i; ++k) l[k] = 1;
    }
    last_one = i;
  }
}

int RnelDeterministicLabel(const roadnet::RoadNetwork& net,
                           traj::EdgeId prev_edge, int prev_label,
                           traj::EdgeId cur_edge) {
  const int prev_out = net.EdgeOutDegree(prev_edge);
  const int cur_in = net.EdgeInDegree(cur_edge);
  // (1) No alternative transition exists in either direction: the label
  //     cannot change.
  if (prev_out == 1 && cur_in == 1) return prev_label;
  // (2) Leaving a normal segment with no alternative exit cannot start an
  //     anomaly.
  if (prev_out == 1 && cur_in > 1 && prev_label == 0) return 0;
  // (3) Entering a segment with no alternative entrance cannot end an
  //     anomaly.
  if (prev_out > 1 && cur_in == 1 && prev_label == 1) return 1;
  return -1;
}

OnlineDetector::OnlineDetector(const roadnet::RoadNetwork* net,
                               const Preprocessor* preprocessor,
                               const RsrNet* rsr, const AsdNet* asd,
                               DetectorConfig config)
    : net_(net),
      preprocessor_(preprocessor),
      rsr_(rsr),
      asd_(asd),
      config_(config) {
  RL4_CHECK(net != nullptr);
  RL4_CHECK(preprocessor != nullptr);
  RL4_CHECK(rsr != nullptr);
  RL4_CHECK(asd != nullptr);
}

OnlineDetector::Session::Session(const OnlineDetector* owner, traj::SdPair sd,
                                 double start_time)
    : owner_(owner),
      sd_(sd),
      start_time_(start_time),
      // Sized up front: a never-fed session must already export
      // correctly-sized hidden vectors for snapshot/restore.
      stream_(owner->rsr_->stream_state_size()),
      tracker_(owner->config_.use_dl ? owner->config_.delay_d : 0),
      rng_(owner->config_.seed) {}

int OnlineDetector::Session::Feed(traj::EdgeId edge) {
  int label;
  if (labels_.empty()) {
    // The source segment is normal by definition (Algorithm 1, line 2). The
    // LSTM still consumes it so downstream states see the full history.
    owner_->rsr_->StepForward(edge, /*nrf_bit=*/0, &stream_, nullptr);
    label = 0;
  } else {
    const uint8_t nrf = owner_->preprocessor_->NormalRouteFeatureAt(
        sd_, start_time_, prev_edge_, edge);
    const nn::Vec z =
        owner_->rsr_->StepForward(edge, nrf, &stream_, nullptr);
    int det = -1;
    if (owner_->config_.use_rnel) {
      det = RnelDeterministicLabel(*owner_->net_, prev_edge_, prev_label_,
                                   edge);
    }
    if (det >= 0) {
      label = det;
    } else if (owner_->config_.stochastic) {
      label = owner_->asd_->SampleAction(z.data(), prev_label_, &rng_);
    } else {
      label = owner_->asd_->GreedyAction(z.data(), prev_label_);
    }
    // The destination segment is also normal by definition; Finish()
    // enforces it once the trajectory is known to be complete.
  }
  labels_.push_back(static_cast<uint8_t>(label));
  edges_.push_back(edge);
  prev_edge_ = edge;
  prev_label_ = label;
  if (const auto run = tracker_.Push(label)) RecordClosedRun(*run);
  return label;
}

std::vector<uint8_t> OnlineDetector::Session::Finish() {
  if (!labels_.empty()) labels_.back() = 0;
  Postprocess(&labels_);
  if (!finished_) {
    finished_ = true;
    // Reconcile the incremental run list with the authoritative final
    // labels. Runs already finalized are bit-identical here (the tail was
    // out of their DL reach); anything beyond them — the open tail, or a
    // pending run reshaped by the forced-normal destination — surfaces now.
    // Matching by begin offset guarantees a run is neither re-reported nor
    // skipped.
    size_t known = 0;
    for (const auto& run : traj::ExtractAnomalousRuns(labels_)) {
      if (known < closed_runs_.size() &&
          closed_runs_[known].begin == run.begin) {
        ++known;
        continue;
      }
      closed_runs_.push_back(run);
      newly_closed_.push_back(run);
    }
  }
  return labels_;
}

void OnlineDetector::Session::Postprocess(std::vector<uint8_t>* labels) const {
  if (owner_->config_.use_dl) {
    ApplyDelayedLabeling(labels, owner_->config_.delay_d);
  }
  if (owner_->config_.use_boundary_trim) {
    TrimRunBoundaries(labels);
  }
}

void OnlineDetector::Session::TrimRunBoundaries(
    std::vector<uint8_t>* labels) const {
  auto& l = *labels;
  for (const auto& run : traj::ExtractAnomalousRuns(l)) {
    const traj::Subtrajectory kept = TrimmedRun(run);
    for (int k = run.begin; k < kept.begin; ++k) l[k] = 0;
    for (int k = kept.end; k < run.end; ++k) l[k] = 0;
  }
}

traj::Subtrajectory OnlineDetector::Session::TrimmedRun(
    traj::Subtrajectory run) const {
  // Walk the run ends inward while the boundary edge itself lies on a
  // normal route of the group (the transition into it was rare, the
  // segment is not).
  const auto& pre = *owner_->preprocessor_;
  while (run.begin < run.end &&
         pre.EdgeOnNormalRouteAt(sd_, start_time_, edges_[run.begin])) {
    ++run.begin;
  }
  while (run.end > run.begin &&
         pre.EdgeOnNormalRouteAt(sd_, start_time_, edges_[run.end - 1])) {
    --run.end;
  }
  return run;
}

void OnlineDetector::Session::RecordClosedRun(traj::Subtrajectory run) {
  if (owner_->config_.use_boundary_trim) run = TrimmedRun(run);
  if (run.begin >= run.end) return;  // trimmed away entirely
  closed_runs_.push_back(run);
  newly_closed_.push_back(run);
}

std::vector<traj::Subtrajectory> OnlineDetector::Session::CurrentAnomalies()
    const {
  std::vector<traj::Subtrajectory> runs = closed_runs_;
  if (auto open = OpenRun()) runs.push_back(*open);
  return runs;
}

std::vector<traj::Subtrajectory>
OnlineDetector::Session::TakeNewlyClosedRuns() {
  std::vector<traj::Subtrajectory> taken;
  taken.swap(newly_closed_);
  return taken;
}

std::optional<traj::Subtrajectory> OnlineDetector::Session::OpenRun() const {
  if (finished_) return std::nullopt;  // settled into closed_runs_
  auto run = tracker_.pending();
  if (!run.has_value()) return std::nullopt;
  if (owner_->config_.use_boundary_trim) run = TrimmedRun(*run);
  if (run->begin >= run->end) return std::nullopt;
  return run;
}

namespace {

void WriteRuns(const std::vector<traj::Subtrajectory>& runs, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(runs.size()));
  for (const auto& run : runs) {
    w->WriteI32(run.begin);
    w->WriteI32(run.end);
  }
}

Status ReadRuns(BinaryReader* r, size_t num_labels,
                std::vector<traj::Subtrajectory>* runs) {
  uint32_t count;
  RL4_RETURN_NOT_OK(r->ReadU32(&count));
  if (r->remaining() < static_cast<size_t>(count) * 8) {
    return Status::OutOfRange("run count exceeds remaining payload");
  }
  runs->clear();
  runs->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    traj::Subtrajectory run;
    RL4_RETURN_NOT_OK(r->ReadI32(&run.begin));
    RL4_RETURN_NOT_OK(r->ReadI32(&run.end));
    if (run.begin < 0 || run.begin >= run.end ||
        run.end > static_cast<int>(num_labels)) {
      return Status::InvalidArgument("anomalous run out of label bounds");
    }
    runs->push_back(run);
  }
  return Status::OK();
}

}  // namespace

void OnlineDetector::Session::ExportState(BinaryWriter* w) const {
  w->WriteI32(sd_.source);
  w->WriteI32(sd_.dest);
  w->WriteF64(start_time_);
  w->WriteU8(finished_ ? 1 : 0);
  w->WriteU32(static_cast<uint32_t>(labels_.size()));
  w->WriteBytes(labels_.data(), labels_.size());
  w->WriteI32Vector(edges_);
  tracker_.ExportState(w);
  WriteRuns(closed_runs_, w);
  WriteRuns(newly_closed_, w);
  w->WriteF32Vector(stream_.state.h);
  w->WriteF32Vector(stream_.state.c);
  const Rng::State rng = rng_.ExportState();
  for (uint64_t word : rng.s) w->WriteU64(word);
  w->WriteU8(rng.has_spare_gaussian ? 1 : 0);
  w->WriteF64(rng.spare_gaussian);
}

Status OnlineDetector::Session::ImportState(BinaryReader* r) {
  // Parse and validate everything into locals first: a corrupt record must
  // leave the session untouched, and no field may be trusted before its
  // bounds are checked (labels index edges, runs index labels, hidden
  // vectors must match the model architecture).
  traj::SdPair sd;
  double start_time;
  uint8_t finished;
  RL4_RETURN_NOT_OK(r->ReadI32(&sd.source));
  RL4_RETURN_NOT_OK(r->ReadI32(&sd.dest));
  RL4_RETURN_NOT_OK(r->ReadF64(&start_time));
  RL4_RETURN_NOT_OK(r->ReadU8(&finished));
  if (finished > 1) {
    return Status::InvalidArgument("session record corrupt (finished flag)");
  }

  uint32_t num_labels;
  RL4_RETURN_NOT_OK(r->ReadU32(&num_labels));
  if (r->remaining() < num_labels) {
    return Status::OutOfRange("label count exceeds remaining payload");
  }
  std::vector<uint8_t> labels(num_labels);
  RL4_RETURN_NOT_OK(r->ReadBytes(labels.data(), num_labels));
  for (uint8_t l : labels) {
    if (l > 1) return Status::InvalidArgument("label outside {0, 1}");
  }
  std::vector<traj::EdgeId> edges;
  RL4_RETURN_NOT_OK(r->ReadI32Vector(&edges));
  if (edges.size() != labels.size()) {
    return Status::InvalidArgument("edge/label history lengths disagree");
  }
  const auto num_edges = static_cast<traj::EdgeId>(owner_->net_->NumEdges());
  for (traj::EdgeId e : edges) {
    if (e < 0 || e >= num_edges) {
      return Status::InvalidArgument("edge id outside the road network");
    }
  }

  RunTracker tracker(owner_->config_.use_dl ? owner_->config_.delay_d : 0);
  RL4_RETURN_NOT_OK(tracker.ImportState(r));
  if (tracker.position() != static_cast<int>(labels.size())) {
    return Status::InvalidArgument(
        "run tracker position disagrees with label count");
  }
  std::vector<traj::Subtrajectory> closed_runs, newly_closed;
  RL4_RETURN_NOT_OK(ReadRuns(r, labels.size(), &closed_runs));
  RL4_RETURN_NOT_OK(ReadRuns(r, labels.size(), &newly_closed));

  RsrStream stream;
  RL4_RETURN_NOT_OK(r->ReadF32Vector(&stream.state.h));
  RL4_RETURN_NOT_OK(r->ReadF32Vector(&stream.state.c));
  const size_t state_size = owner_->rsr_->stream_state_size();
  if (stream.state.h.size() != state_size ||
      stream.state.c.size() != state_size) {
    return Status::FailedPrecondition(
        "recurrent state size " + std::to_string(stream.state.h.size()) +
        " does not match the serving model (" + std::to_string(state_size) +
        "); was the snapshot taken with a different architecture?");
  }

  Rng::State rng;
  for (uint64_t& word : rng.s) RL4_RETURN_NOT_OK(r->ReadU64(&word));
  uint8_t has_spare;
  RL4_RETURN_NOT_OK(r->ReadU8(&has_spare));
  if (has_spare > 1) {
    return Status::InvalidArgument("session record corrupt (rng spare flag)");
  }
  rng.has_spare_gaussian = has_spare != 0;
  RL4_RETURN_NOT_OK(r->ReadF64(&rng.spare_gaussian));

  sd_ = sd;
  start_time_ = start_time;
  finished_ = finished != 0;
  labels_ = std::move(labels);
  edges_ = std::move(edges);
  prev_edge_ = edges_.empty() ? roadnet::kInvalidEdge : edges_.back();
  prev_label_ = labels_.empty() ? 0 : labels_.back();
  tracker_ = tracker;
  closed_runs_ = std::move(closed_runs);
  newly_closed_ = std::move(newly_closed);
  stream_ = std::move(stream);
  rng_.ImportState(rng);
  return Status::OK();
}

OnlineDetector::Session OnlineDetector::ReprimeSession(
    const Session& old) const {
  Session s(this, old.sd_, old.start_time_);
  // The bookkeeping is history, not model output: carrying it over verbatim
  // (including the tracker's DL window and the RNG stream position) is what
  // guarantees a run already alerted is never re-reported and a pending one
  // is never dropped across the swap.
  s.labels_ = old.labels_;
  s.edges_ = old.edges_;
  s.prev_edge_ = old.prev_edge_;
  s.prev_label_ = old.prev_label_;
  s.tracker_ = old.tracker_;
  s.closed_runs_ = old.closed_runs_;
  s.newly_closed_ = old.newly_closed_;
  s.finished_ = old.finished_;
  s.rng_ = old.rng_;
  // Deterministic re-prime: replay the fed edges through this detector's
  // RSRNet so the hidden state reflects the new weights over the same
  // history (NRF bits recomputed against this detector's preprocessor; the
  // first segment is normal by definition and carries NRF 0, as in Feed).
  traj::EdgeId prev = roadnet::kInvalidEdge;
  for (size_t i = 0; i < s.edges_.size(); ++i) {
    const uint8_t nrf =
        i == 0 ? 0
               : preprocessor_->NormalRouteFeatureAt(s.sd_, s.start_time_,
                                                     prev, s.edges_[i]);
    rsr_->StepForward(s.edges_[i], nrf, &s.stream_, nullptr);
    prev = s.edges_[i];
  }
  return s;
}

void OnlineDetector::FeedBatch(std::span<Session* const> sessions,
                               std::span<const traj::EdgeId> edges,
                               int* labels) const {
  const size_t B = sessions.size();
  RL4_CHECK_EQ(edges.size(), B);
  if (B == 0) return;
  if (B == 1) {  // a wave of one is the single-stream step; skip the plumbing
    const int label = sessions[0]->Feed(edges[0]);
    if (labels != nullptr) labels[0] = label;
    return;
  }

  // Phase 1 (scalar, cheap): per-session NRF bits and deterministic labels.
  // A session's first segment is normal by definition and skips the policy;
  // RNEL decides some of the rest without the policy. The RSRNet step still
  // runs for every session so downstream states see the full history.
  // All scratch is thread-local and fully rewritten per call, so
  // steady-state waves allocate nothing.
  static thread_local std::vector<uint8_t> nrf;
  static thread_local std::vector<int> det;
  static thread_local std::vector<RsrStream*> streams;
  nrf.assign(B, 0);
  det.assign(B, -1);
  streams.resize(B);
  for (size_t b = 0; b < B; ++b) {
    Session* s = sessions[b];
    RL4_CHECK(s->owner_ == this);
    streams[b] = &s->stream_;
    if (s->labels_.empty()) continue;  // first point: nrf 0, label 0
    nrf[b] = preprocessor_->NormalRouteFeatureAt(s->sd_, s->start_time_,
                                                 s->prev_edge_, edges[b]);
    if (config_.use_rnel) {
      det[b] = RnelDeterministicLabel(*net_, s->prev_edge_, s->prev_label_,
                                      edges[b]);
    }
  }

  // Phase 2: one batched RSRNet step across all B sessions.
  static thread_local nn::Matrix z;
  rsr_->StepForwardBatch(edges, nrf, streams, &z);

  // Phase 3: batched policy over the sessions RNEL left undecided.
  static thread_local std::vector<int> decided;
  static thread_local std::vector<size_t> need;
  decided.resize(B);
  need.clear();
  for (size_t b = 0; b < B; ++b) {
    if (sessions[b]->labels_.empty()) {
      decided[b] = 0;
    } else if (det[b] >= 0) {
      decided[b] = det[b];
    } else {
      need.push_back(b);
    }
  }
  if (!need.empty()) {
    const size_t M = need.size();
    const size_t zd = z.rows();
    static thread_local nn::Matrix zsub;
    static thread_local std::vector<int> prev;
    static thread_local nn::Matrix probs;
    zsub.EnsureShape(zd, M);
    prev.resize(M);
    for (size_t m = 0; m < M; ++m) {
      const size_t b = need[m];
      const float* src = z.data() + b;
      float* dst = zsub.data() + m;
      for (size_t r = 0; r < zd; ++r) dst[r * M] = src[r * B];
      prev[m] = sessions[b]->prev_label_;
    }
    asd_->ActionProbsBatch(zsub, prev, &probs);
    for (size_t m = 0; m < M; ++m) {
      const size_t b = need[m];
      const float p0 = probs(0, m);
      const float p1 = probs(1, m);
      if (config_.stochastic) {
        // Same per-session draw as SampleAction, so batched and streaming
        // stochastic runs consume each session's RNG identically.
        decided[b] = sessions[b]->rng_.Uniform() < p0 ? 0 : 1;
      } else {
        decided[b] = p1 > p0 ? 1 : 0;
      }
    }
  }

  // Phase 4 (scalar): per-session bookkeeping, identical to Feed's tail.
  for (size_t b = 0; b < B; ++b) {
    Session* s = sessions[b];
    const int label = decided[b];
    s->labels_.push_back(static_cast<uint8_t>(label));
    s->edges_.push_back(edges[b]);
    s->prev_edge_ = edges[b];
    s->prev_label_ = label;
    if (const auto run = s->tracker_.Push(label)) s->RecordClosedRun(*run);
    if (labels != nullptr) labels[b] = label;
  }
}

std::vector<uint8_t> OnlineDetector::Detect(
    const traj::MapMatchedTrajectory& t) const {
  Session session(this, t.sd(), t.start_time);
  for (traj::EdgeId e : t.edges) session.Feed(e);
  return session.Finish();
}

}  // namespace rl4oasd::core
