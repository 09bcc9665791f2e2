// Named-tensor checkpoint format for nn::ParameterRegistry. Layout (inside
// a CRC32-protected BinaryWriter payload):
//
//   magic "RLTF" | u32 format version | u32 tensor count |
//   per tensor: name | u64 rows | u64 cols | rows*cols f32 values
//
// Loading into a registry is strict: every stored tensor must match a
// registered parameter by name and shape, and every registered parameter
// must be present. This catches architecture/config drift between the
// training and serving binaries instead of silently mis-assigning weights.
#pragma once

#include <string>

#include "common/binary.h"
#include "common/status.h"
#include "nn/param.h"
#include "nn/tensor.h"

namespace rl4oasd::io {

inline constexpr uint32_t kTensorFormatVersion = 1;

/// Appends all registry parameters (values only, not gradients) to `w`.
void WriteRegistry(const nn::ParameterRegistry& registry, BinaryWriter* w);

/// Reads tensors from `r` into the matching registered parameters.
Status ReadRegistry(BinaryReader* r, nn::ParameterRegistry* registry);

/// Saves a registry alone to `path` (one model per file).
Status SaveRegistry(const nn::ParameterRegistry& registry,
                    const std::string& path);
Status LoadRegistry(const std::string& path, nn::ParameterRegistry* registry);

}  // namespace rl4oasd::io
