#include "io/model_io.h"

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "common/strings.h"
#include "io/checkpoint.h"

namespace rl4oasd::io {

namespace {

constexpr char kMagic[4] = {'R', 'L', 'M', 'B'};

/// Flat key->double view of every tunable in Rl4OasdConfig. Pointers into
/// the config let one table serve both directions. Integral and bool fields
/// travel as doubles (exact for the ranges involved). A bundle is untrusted
/// input, so Read validates every known value before it reaches the config:
/// the model constructors CHECK-fail on values no writer produces, and a
/// double outside its field's range does not convert at all.
class ConfigKvView {
 public:
  explicit ConfigKvView(core::Rl4OasdConfig* c) {
    Bind("preprocess.alpha", &c->preprocess.alpha);
    Bind("preprocess.delta", &c->preprocess.delta);
    BindInt("preprocess.time_slot_hours", &c->preprocess.time_slot_hours,
            /*min=*/1);
    BindInt("preprocess.min_slot_support", &c->preprocess.min_slot_support);

    BindInt("rsr.num_edges", &c->rsr.num_edges);
    BindInt("rsr.embed_dim", &c->rsr.embed_dim);
    BindInt("rsr.nrf_dim", &c->rsr.nrf_dim);
    BindInt("rsr.hidden_dim", &c->rsr.hidden_dim);
    BindFloat("rsr.lr", &c->rsr.lr);
    BindFloat("rsr.grad_clip", &c->rsr.grad_clip);
    BindFloat("rsr.positive_weight", &c->rsr.positive_weight);
    BindFloat("rsr.label_smoothing", &c->rsr.label_smoothing);
    BindInt("rsr.seed", &c->rsr.seed);
    // RSRNet's core is the paper's single-layer LSTM. These two keys once
    // selected a GRU or a stacked core; they stay in every bundle at the
    // LSTM's values, so bundle bytes and fingerprints do not move, and a
    // bundle that names another core is refused here, by key, instead of
    // failing deep in the tensor reader.
    BindFixed("rsr.rnn_kind", 0.0);
    BindFixed("rsr.num_layers", 1.0);

    BindInt("asd.label_dim", &c->asd.label_dim);
    BindFloat("asd.lr", &c->asd.lr);
    BindFloat("asd.grad_clip", &c->asd.grad_clip);
    BindInt("asd.seed", &c->asd.seed);

    BindBool("detector.use_rnel", &c->detector.use_rnel);
    BindBool("detector.use_dl", &c->detector.use_dl);
    BindInt("detector.delay_d", &c->detector.delay_d);
    BindBool("detector.use_boundary_trim", &c->detector.use_boundary_trim);
    BindBool("detector.stochastic", &c->detector.stochastic);
    BindInt("detector.seed", &c->detector.seed);

    // SkipGramTrainer CHECK-fails below these minimums (a window of 0
    // would divide by zero drawing the window, a negative one never ends).
    // Skip-gram trains at rsr.embed_dim; embedding.dim once set it too and
    // stays in every bundle at that value, so bundle bytes do not move.
    BindMirror("embedding.dim", &c->rsr.embed_dim, /*min=*/size_t{1});
    BindInt("embedding.window", &c->embedding.window, /*min=*/1);
    BindInt("embedding.negatives", &c->embedding.negatives, /*min=*/0);
    BindInt("embedding.epochs", &c->embedding.epochs, /*min=*/0);
    Bind("embedding.lr", &c->embedding.lr);
    Bind("embedding.min_lr", &c->embedding.min_lr);
    BindInt("embedding.random_walks_per_edge",
            &c->embedding.random_walks_per_edge, /*min=*/0);
    BindInt("embedding.walk_length", &c->embedding.walk_length, /*min=*/1);
    Bind("embedding.aux_weight", &c->embedding.aux_weight);
    BindInt("embedding.seed", &c->embedding.seed);

    BindInt("train.pretrain_samples", &c->pretrain_samples);
    BindInt("train.pretrain_epochs", &c->pretrain_epochs);
    BindInt("train.joint_samples", &c->joint_samples);
    BindInt("train.epochs_per_traj", &c->epochs_per_traj);
    BindBool("train.use_reward_baseline", &c->use_reward_baseline);
    Bind("train.noisy_anchor_prob", &c->noisy_anchor_prob);
    BindBool("train.train_rsr_in_joint", &c->train_rsr_in_joint);
    Bind("train.joint_explore_eps", &c->joint_explore_eps);

    BindBool("ablation.use_noisy_labels", &c->use_noisy_labels);
    BindBool("ablation.use_pretrained_embeddings",
             &c->use_pretrained_embeddings);
    BindBool("ablation.use_local_reward", &c->use_local_reward);
    BindBool("ablation.use_global_reward", &c->use_global_reward);
    BindBool("ablation.use_asdnet", &c->use_asdnet);
    BindBool("ablation.transition_frequency_only",
             &c->transition_frequency_only);
    BindInt("seed", &c->seed);
  }

  void Write(BinaryWriter* w) const {
    w->WriteU32(static_cast<uint32_t>(getters_.size()));
    for (const auto& [key, get] : getters_) {
      w->WriteString(key);
      w->WriteF64(get());
    }
  }

  Status Read(BinaryReader* r) {
    uint32_t count;
    RL4_RETURN_NOT_OK(r->ReadU32(&count));
    for (uint32_t i = 0; i < count; ++i) {
      std::string key;
      double value;
      RL4_RETURN_NOT_OK(r->ReadString(&key));
      RL4_RETURN_NOT_OK(r->ReadF64(&value));
      // Unknown keys are skipped: bundles written by newer builds still load.
      auto it = setters_.find(key);
      if (it == setters_.end()) continue;
      if (!std::isfinite(value)) {
        return Status::InvalidArgument(StrFormat(
            "bundle config %s = %g is not finite", key.c_str(), value));
      }
      RL4_RETURN_NOT_OK(it->second(value));
    }
    return Status::OK();
  }

 private:
  static Status OutOfRange(const char* key, double v) {
    return Status::InvalidArgument(
        StrFormat("bundle config %s = %.17g is out of range", key, v));
  }

  void Bind(const char* key, double* p) {
    getters_.emplace(key, [p] { return *p; });
    setters_.emplace(key, [p](double v) {
      *p = v;
      return Status::OK();
    });
  }
  void BindFloat(const char* key, float* p) {
    getters_.emplace(key, [p] { return static_cast<double>(*p); });
    setters_.emplace(key, [key, p](double v) {
      if (std::abs(v) > std::numeric_limits<float>::max()) {
        return OutOfRange(key, v);
      }
      *p = static_cast<float>(v);
      return Status::OK();
    });
  }
  /// Accepts only integers in [min, 2^digits), digits being T's value
  /// bits: exactly the doubles that convert to T. Both bounds are exact
  /// doubles, where T's max need not be (2^64 - 1 rounds up to 2^64).
  template <typename T>
  static Status ToInt(const char* key, double v, T min, T* out) {
    const double end = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (v != std::trunc(v) || v < static_cast<double>(min) || v >= end) {
      return OutOfRange(key, v);
    }
    *out = static_cast<T>(v);
    return Status::OK();
  }
  template <typename T>
  void BindInt(const char* key, T* p, T min = std::numeric_limits<T>::min()) {
    getters_.emplace(key, [p] { return static_cast<double>(*p); });
    setters_.emplace(key, [key, p, min](double v) {
      return ToInt(key, v, min, p);
    });
  }
  /// A retired key written as another field's value: reading range-checks
  /// it like BindInt and stores nothing.
  template <typename T>
  void BindMirror(const char* key, const T* p, T min) {
    getters_.emplace(key, [p] { return static_cast<double>(*p); });
    setters_.emplace(key, [key, min](double v) {
      T unused;
      return ToInt(key, v, min, &unused);
    });
  }
  void BindBool(const char* key, bool* p) {
    getters_.emplace(key, [p] { return *p ? 1.0 : 0.0; });
    setters_.emplace(key, [p](double v) {
      *p = v != 0.0;
      return Status::OK();
    });
  }
  /// A key with no config field, always written as `value` (the retired
  /// recurrent-core selectors above); reading any other value fails.
  void BindFixed(const char* key, double value) {
    getters_.emplace(key, [value] { return value; });
    setters_.emplace(key, [key, value](double v) {
      if (v == value) return Status::OK();
      return Status::FailedPrecondition(
          StrFormat("bundle config %s = %g names a retired RSRNet core; "
                    "this build loads only %s = %g (the single-layer LSTM)",
                    key, v, key, value));
    });
  }

  std::map<std::string, std::function<double()>> getters_;
  std::map<std::string, std::function<Status(double)>> setters_;
};

void WriteSnapshots(const std::vector<core::GroupSnapshot>& snaps,
                    BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(snaps.size()));
  for (const core::GroupSnapshot& s : snaps) {
    w->WriteI32(s.sd.source);
    w->WriteI32(s.sd.dest);
    w->WriteI32(s.slot);
    w->WriteI64(s.num_trajs);
    w->WriteU32(static_cast<uint32_t>(s.transitions.size()));
    for (const auto& [key, count] : s.transitions) {
      w->WriteI64(key);
      w->WriteI64(count);
    }
    w->WriteU32(static_cast<uint32_t>(s.routes.size()));
    for (const auto& [route, count] : s.routes) {
      w->WriteString(route);
      w->WriteI64(count);
    }
  }
}

Status ReadSnapshots(BinaryReader* r,
                     std::vector<core::GroupSnapshot>* snaps) {
  uint32_t count;
  RL4_RETURN_NOT_OK(r->ReadU32(&count));
  snaps->clear();
  snaps->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    core::GroupSnapshot s;
    RL4_RETURN_NOT_OK(r->ReadI32(&s.sd.source));
    RL4_RETURN_NOT_OK(r->ReadI32(&s.sd.dest));
    RL4_RETURN_NOT_OK(r->ReadI32(&s.slot));
    RL4_RETURN_NOT_OK(r->ReadI64(&s.num_trajs));
    uint32_t num_transitions;
    RL4_RETURN_NOT_OK(r->ReadU32(&num_transitions));
    s.transitions.resize(num_transitions);
    for (auto& [key, c] : s.transitions) {
      RL4_RETURN_NOT_OK(r->ReadI64(&key));
      RL4_RETURN_NOT_OK(r->ReadI64(&c));
    }
    uint32_t num_routes;
    RL4_RETURN_NOT_OK(r->ReadU32(&num_routes));
    s.routes.resize(num_routes);
    for (auto& [route, c] : s.routes) {
      RL4_RETURN_NOT_OK(r->ReadString(&route));
      RL4_RETURN_NOT_OK(r->ReadI64(&c));
    }
    snaps->push_back(std::move(s));
  }
  return Status::OK();
}

}  // namespace

void WriteConfigKv(const core::Rl4OasdConfig& config, BinaryWriter* w) {
  core::Rl4OasdConfig copy = config;
  ConfigKvView(&copy).Write(w);
}

Status ReadConfigKv(BinaryReader* r, core::Rl4OasdConfig* config) {
  return ConfigKvView(config).Read(r);
}

namespace {

void WriteModelPayload(const core::Rl4Oasd& model, BinaryWriter* w) {
  w->WriteBytes(kMagic, 4);
  w->WriteU32(kModelBundleVersion);
  WriteConfigKv(model.config(), w);
  WriteSnapshots(model.preprocessor().ExportState(), w);
  // Registries are const-correct at the layer level but parameter access for
  // serialization is value-only.
  WriteRegistry(*const_cast<core::Rl4Oasd&>(model).mutable_rsrnet()->registry(),
                w);
  WriteRegistry(*const_cast<core::Rl4Oasd&>(model).mutable_asdnet()->registry(),
                w);
}

}  // namespace

void WriteModelBundle(const core::Rl4Oasd& model, BinaryWriter* w) {
  WriteModelPayload(model, w);
}

Status SaveModel(const core::Rl4Oasd& model, const std::string& path) {
  BinaryWriter w;
  WriteModelPayload(model, &w);
  return w.WriteToFile(path);
}

uint64_t ModelFingerprint(const core::Rl4Oasd& model) {
  BinaryWriter w;
  WriteModelPayload(model, &w);
  const std::string& buf = w.buffer();
  // FNV-1a 64 over the exact SaveModel bytes. A genuine 64-bit hash, not
  // two seeded CRC32 passes: CRCs over the same polynomial are affine in
  // the seed, so a seed pair collides whenever one half does and buys no
  // extra resistance. Accidental collisions between fine-tuned bundles are
  // what the stamp guards against (not adversaries), and 2^-64 per pair
  // keeps them out of reach across any realistic model registry.
  uint64_t h = 14695981039346656037ULL;
  for (const char c : buf) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

Result<std::unique_ptr<core::Rl4Oasd>> ReadModelBundle(
    const roadnet::RoadNetwork* net, BinaryReader* r) {
  char magic[4];
  RL4_RETURN_NOT_OK(r->ReadBytes(magic, 4));
  if (std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return Status::IOError("not a model bundle (bad magic)");
  }
  uint32_t version;
  RL4_RETURN_NOT_OK(r->ReadU32(&version));
  if (version != kModelBundleVersion) {
    return Status::IOError("unsupported model bundle version " +
                           std::to_string(version));
  }
  core::Rl4OasdConfig config;
  RL4_RETURN_NOT_OK(ReadConfigKv(r, &config));
  if (config.rsr.num_edges != 0 && config.rsr.num_edges != net->NumEdges()) {
    return Status::FailedPrecondition(
        "bundle was trained on a network with " +
        std::to_string(config.rsr.num_edges) + " edges; this network has " +
        std::to_string(net->NumEdges()));
  }
  // The constructors allocate every weight before the tensor reader sees
  // one, so refuse dimensions asking for more floats than the payload has
  // left: a lying bundle could otherwise wrap a table size or exhaust memory.
  const std::optional<size_t> num_params =
      core::Rl4Oasd::ParameterCount(config, net->NumEdges());
  if (!num_params || *num_params > r->remaining() / sizeof(float)) {
    return Status::InvalidArgument(StrFormat(
        "bundle config rsr.embed_dim = %zu, rsr.nrf_dim = %zu, "
        "rsr.hidden_dim = %zu and asd.label_dim = %zu ask for more weights "
        "than the %zu payload bytes left hold",
        config.rsr.embed_dim, config.rsr.nrf_dim, config.rsr.hidden_dim,
        config.asd.label_dim, r->remaining()));
  }
  auto model = std::make_unique<core::Rl4Oasd>(net, config);

  std::vector<core::GroupSnapshot> snaps;
  RL4_RETURN_NOT_OK(ReadSnapshots(r, &snaps));
  model->mutable_preprocessor()->ImportState(snaps);

  RL4_RETURN_NOT_OK(ReadRegistry(r, model->mutable_rsrnet()->registry()));
  model->mutable_rsrnet()->Repack();
  RL4_RETURN_NOT_OK(ReadRegistry(r, model->mutable_asdnet()->registry()));
  return model;
}

Result<std::unique_ptr<core::Rl4Oasd>> LoadModel(
    const roadnet::RoadNetwork* net, const std::string& path) {
  RL4_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::OpenFile(path));
  auto model = ReadModelBundle(net, &r);
  if (model.ok() && !r.AtEnd()) {
    return Status::IOError("trailing bytes after model bundle payload: " +
                           path);
  }
  return model;
}

Result<std::unique_ptr<core::Rl4Oasd>> CloneModel(
    const roadnet::RoadNetwork* net, const core::Rl4Oasd& model) {
  BinaryWriter w;
  WriteModelPayload(model, &w);
  BinaryReader r(w.buffer());
  auto clone = ReadModelBundle(net, &r);
  // The writer and reader are this function's own; a mismatch here is a
  // serialization bug, not hostile input, but fail cleanly all the same.
  if (clone.ok() && !r.AtEnd()) {
    return Status::Internal("trailing bytes after cloned model payload");
  }
  return clone;
}


namespace {

/// Reads one tensor section (as written by WriteRegistry), keeping headers
/// and skipping the float payloads.
Status SkimTensors(BinaryReader* r, std::vector<TensorInfo>* out,
                   size_t* total_weights) {
  char magic[4];
  RL4_RETURN_NOT_OK(r->ReadBytes(magic, 4));
  if (std::string_view(magic, 4) != "RLTF") {
    return Status::IOError("expected a tensor section");
  }
  uint32_t version, count;
  RL4_RETURN_NOT_OK(r->ReadU32(&version));
  RL4_RETURN_NOT_OK(r->ReadU32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    TensorInfo info;
    RL4_RETURN_NOT_OK(r->ReadString(&info.name));
    RL4_RETURN_NOT_OK(r->ReadU64(&info.rows));
    RL4_RETURN_NOT_OK(r->ReadU64(&info.cols));
    const uint64_t n = info.rows * info.cols;
    if (r->remaining() < n * 4) {
      return Status::OutOfRange("tensor payload exceeds file");
    }
    for (uint64_t k = 0; k < n; ++k) {
      float unused;
      RL4_RETURN_NOT_OK(r->ReadF32(&unused));
    }
    *total_weights += n;
    out->push_back(std::move(info));
  }
  return Status::OK();
}

}  // namespace

Result<ModelDescription> DescribeModel(const std::string& path) {
  RL4_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::OpenFile(path));
  char magic[4];
  RL4_RETURN_NOT_OK(r.ReadBytes(magic, 4));
  if (std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return Status::IOError("not a model bundle (bad magic): " + path);
  }
  ModelDescription desc;
  RL4_RETURN_NOT_OK(r.ReadU32(&desc.version));

  uint32_t kv_count;
  RL4_RETURN_NOT_OK(r.ReadU32(&kv_count));
  for (uint32_t i = 0; i < kv_count; ++i) {
    std::string key;
    double value;
    RL4_RETURN_NOT_OK(r.ReadString(&key));
    RL4_RETURN_NOT_OK(r.ReadF64(&value));
    desc.config.emplace_back(std::move(key), value);
  }

  std::vector<core::GroupSnapshot> snaps;
  RL4_RETURN_NOT_OK(ReadSnapshots(&r, &snaps));
  for (const auto& s : snaps) {
    if (s.slot >= 0) {
      desc.num_groups += 1;
    } else {
      // The all-slots aggregates count each trajectory exactly once.
      desc.num_trajs += s.num_trajs;
    }
  }

  RL4_RETURN_NOT_OK(SkimTensors(&r, &desc.rsr_tensors, &desc.total_weights));
  RL4_RETURN_NOT_OK(SkimTensors(&r, &desc.asd_tensors, &desc.total_weights));
  if (!r.AtEnd()) {
    return Status::IOError("trailing bytes after model bundle payload");
  }
  return desc;
}

}  // namespace rl4oasd::io
