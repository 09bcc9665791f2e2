#include "io/checkpoint.h"

#include <unordered_map>

namespace rl4oasd::io {

namespace {

constexpr char kMagic[4] = {'R', 'L', 'T', 'F'};

void WriteTensorPayload(const std::string& name, const nn::Matrix& m,
                        BinaryWriter* w) {
  w->WriteString(name);
  w->WriteU64(m.rows());
  w->WriteU64(m.cols());
  w->WriteF32Array(m.data(), m.size());
}

Status CheckMagicAndVersion(BinaryReader* r) {
  char magic[4];
  RL4_RETURN_NOT_OK(r->ReadBytes(magic, 4));
  if (std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return Status::IOError("not a tensor checkpoint (bad magic)");
  }
  uint32_t version;
  RL4_RETURN_NOT_OK(r->ReadU32(&version));
  if (version != kTensorFormatVersion) {
    return Status::IOError("unsupported checkpoint version " +
                           std::to_string(version));
  }
  return Status::OK();
}

}  // namespace

void WriteRegistry(const nn::ParameterRegistry& registry, BinaryWriter* w) {
  w->WriteBytes(kMagic, 4);
  w->WriteU32(kTensorFormatVersion);
  w->WriteU32(static_cast<uint32_t>(registry.params().size()));
  for (const nn::Parameter* p : registry.params()) {
    WriteTensorPayload(p->name, p->value, w);
  }
}

Status ReadRegistry(BinaryReader* r, nn::ParameterRegistry* registry) {
  RL4_RETURN_NOT_OK(CheckMagicAndVersion(r));
  uint32_t count;
  RL4_RETURN_NOT_OK(r->ReadU32(&count));

  std::unordered_map<std::string, nn::Parameter*> by_name;
  for (nn::Parameter* p : registry->params()) {
    if (!by_name.emplace(p->name, p).second) {
      return Status::FailedPrecondition("duplicate parameter name: " +
                                        p->name);
    }
  }
  if (count != by_name.size()) {
    return Status::IOError("checkpoint holds " + std::to_string(count) +
                           " tensors, model expects " +
                           std::to_string(by_name.size()));
  }

  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    RL4_RETURN_NOT_OK(r->ReadString(&name));
    uint64_t rows, cols;
    RL4_RETURN_NOT_OK(r->ReadU64(&rows));
    RL4_RETURN_NOT_OK(r->ReadU64(&cols));
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::IOError("checkpoint tensor not in model: " + name);
    }
    nn::Matrix& dst = it->second->value;
    if (dst.rows() != rows || dst.cols() != cols) {
      return Status::IOError(
          "shape mismatch for " + name + ": checkpoint " +
          std::to_string(rows) + "x" + std::to_string(cols) + ", model " +
          std::to_string(dst.rows()) + "x" + std::to_string(dst.cols()));
    }
    RL4_RETURN_NOT_OK(r->ReadF32Array(dst.data(), dst.size()));
    by_name.erase(it);
  }
  // count == by_name initial size and each hit erased one entry, so an empty
  // map here means exact coverage.
  if (!by_name.empty()) {
    return Status::IOError("checkpoint repeats a tensor and misses: " +
                           by_name.begin()->first);
  }
  return Status::OK();
}

Status SaveRegistry(const nn::ParameterRegistry& registry,
                    const std::string& path) {
  BinaryWriter w;
  WriteRegistry(registry, &w);
  return w.WriteToFile(path);
}

Status LoadRegistry(const std::string& path, nn::ParameterRegistry* registry) {
  RL4_ASSIGN_OR_RETURN(BinaryReader r, BinaryReader::OpenFile(path));
  return ReadRegistry(&r, registry);
}

}  // namespace rl4oasd::io
