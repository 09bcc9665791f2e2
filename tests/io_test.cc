// Tests for the io module: binary encoding primitives, CRC32 integrity,
// tensor checkpoints, dataset / road-network round trips, and whole-model
// bundles. Failure injection (truncation, bit flips, wrong magic, shape
// drift) verifies that corrupt inputs are rejected with a clean Status
// instead of undefined behaviour.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/binary.h"
#include "common/rng.h"
#include "core/rl4oasd.h"
#include "io/checkpoint.h"
#include "io/dataset_io.h"
#include "io/model_io.h"
#include "test_util.h"

namespace rl4oasd {
namespace {

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rl4oasd_io_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Flips one byte in the middle of a file (CRC must catch it).
  static void CorruptByte(const std::string& path, size_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<size_t>(f.tellg());
    ASSERT_LT(offset, size);
    f.seekg(offset);
    char c;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5A);
    f.seekp(offset);
    f.write(&c, 1);
  }

  static void Truncate(const std::string& path, size_t new_size) {
    fs::resize_file(path, new_size);
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Binary primitives.

TEST_F(IoTest, PrimitiveRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-42);
  w.WriteI64(-9e15);
  w.WriteF32(3.25f);
  w.WriteF64(-2.5e-300);
  w.WriteString("hello, 道路");
  w.WriteI32Vector({1, -2, 3});
  w.WriteF32Vector({0.5f, -0.25f});

  BinaryReader r(w.buffer());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  float f32;
  double f64;
  std::string s;
  std::vector<int32_t> vi;
  std::vector<float> vf;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadF32(&f32).ok());
  ASSERT_TRUE(r.ReadF64(&f64).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  ASSERT_TRUE(r.ReadI32Vector(&vi).ok());
  ASSERT_TRUE(r.ReadF32Vector(&vf).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, static_cast<int64_t>(-9e15));
  EXPECT_EQ(f32, 3.25f);
  EXPECT_EQ(f64, -2.5e-300);
  EXPECT_EQ(s, "hello, 道路");
  EXPECT_EQ(vi, (std::vector<int32_t>{1, -2, 3}));
  EXPECT_EQ(vf, (std::vector<float>{0.5f, -0.25f}));
  EXPECT_TRUE(r.AtEnd());
}

TEST_F(IoTest, ReadPastEndFails) {
  BinaryWriter w;
  w.WriteU32(7);
  BinaryReader r(w.buffer());
  uint64_t v;
  EXPECT_EQ(r.ReadU64(&v).code(), StatusCode::kOutOfRange);
}

TEST_F(IoTest, StringLengthBeyondPayloadFails) {
  BinaryWriter w;
  w.WriteU32(1000);  // claims a 1000-byte string
  w.WriteBytes("abc", 3);
  BinaryReader r(w.buffer());
  std::string s;
  EXPECT_EQ(r.ReadString(&s).code(), StatusCode::kOutOfRange);
}

TEST_F(IoTest, VectorLengthBeyondPayloadFails) {
  BinaryWriter w;
  w.WriteU32(0xFFFFFFFFu);  // absurd element count
  BinaryReader r(w.buffer());
  std::vector<int32_t> v;
  EXPECT_EQ(r.ReadI32Vector(&v).code(), StatusCode::kOutOfRange);
}

TEST_F(IoTest, Crc32KnownVector) {
  // Standard check value for "123456789" under CRC-32/IEEE.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

/// The textbook bitwise CRC-32 (reflected, polynomial 0xEDB88320): the
/// reference the table-driven Crc32 must reproduce.
uint32_t BitwiseCrc32(const unsigned char* p, size_t n, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST_F(IoTest, Crc32MatchesTheBitwiseReferenceAtAnyLengthAndAlignment) {
  Rng rng(5);
  std::vector<unsigned char> bytes(4096 + 16);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.UniformInt(256));
  for (int trial = 0; trial < 400; ++trial) {
    // Every start phase of an 8-byte block, short lengths (all tail) and
    // long ones; a nonzero seed chains two calls.
    const size_t start = rng.UniformInt(16);
    const size_t n = trial < 64 ? static_cast<size_t>(trial)
                                : rng.UniformInt(4096);
    const uint32_t seed = trial % 3 == 0 ? 0u
                                         : static_cast<uint32_t>(rng.NextU64());
    const unsigned char* p = bytes.data() + start;
    ASSERT_EQ(Crc32(p, n, seed), BitwiseCrc32(p, n, seed))
        << "start " << start << " length " << n;
    const size_t cut = n / 3;
    ASSERT_EQ(Crc32(p + cut, n - cut, Crc32(p, cut, seed)),
              BitwiseCrc32(p, n, seed))
        << "chained at " << cut << " of " << n;
  }
}

TEST_F(IoTest, FloatArraysRoundTripBitExactly) {
  const float special[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN(), 1e-40f,
                           -3.5f};
  for (size_t n : {size_t{0}, size_t{1}, size_t{6}, size_t{1000}}) {
    std::vector<float> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = special[i % std::size(special)];
    BinaryWriter w;
    w.WriteU8(7);  // the floats start unaligned
    w.WriteF32Array(v.data(), n);
    // Little-endian on every host: float i's low byte comes first.
    for (size_t i = 0; i < n; ++i) {
      uint32_t bits;
      std::memcpy(&bits, &v[i], 4);
      ASSERT_EQ(static_cast<unsigned char>(w.buffer()[1 + 4 * i]),
                bits & 0xFFu);
    }
    BinaryReader r(w.buffer());
    uint8_t tag;
    ASSERT_TRUE(r.ReadU8(&tag).ok());
    std::vector<float> back(n, 1.0f);
    ASSERT_TRUE(r.ReadF32Array(back.data(), n).ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(std::memcmp(back.data(), v.data(), n * sizeof(float)), 0);
    // A short payload fails without writing anything.
    if (n > 0) {
      BinaryReader short_r(w.buffer().substr(0, w.size() - 1));
      ASSERT_TRUE(short_r.ReadU8(&tag).ok());
      std::vector<float> untouched(n, 1.0f);
      EXPECT_EQ(short_r.ReadF32Array(untouched.data(), n).code(),
                StatusCode::kOutOfRange);
      EXPECT_EQ(untouched, std::vector<float>(n, 1.0f));
    }
  }
}

TEST_F(IoTest, FileRoundTripAndCrcRejection) {
  BinaryWriter w;
  for (int i = 0; i < 100; ++i) w.WriteI32(i * i);
  const std::string path = Path("blob.bin");
  ASSERT_TRUE(w.WriteToFile(path).ok());

  auto ok = BinaryReader::OpenFile(path);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  int32_t v;
  ASSERT_TRUE(ok->ReadI32(&v).ok());
  EXPECT_EQ(v, 0);

  CorruptByte(path, 17);
  auto bad = BinaryReader::OpenFile(path);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIOError);
}

TEST_F(IoTest, OpenMissingFileFails) {
  auto r = BinaryReader::OpenFile(Path("does_not_exist.bin"));
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(IoTest, TruncatedFileFailsCrc) {
  BinaryWriter w;
  w.WriteString("payload payload payload");
  const std::string path = Path("trunc.bin");
  ASSERT_TRUE(w.WriteToFile(path).ok());
  Truncate(path, 10);
  EXPECT_FALSE(BinaryReader::OpenFile(path).ok());
}

// ---------------------------------------------------------------------------
// Tensor checkpoints.

TEST_F(IoTest, RegistryRoundTrip) {
  Rng rng(3);
  nn::Parameter a("layer/w", 4, 6), b("layer/b", 1, 6);
  a.XavierInit(&rng);
  b.UniformInit(&rng, 0.1f);
  nn::ParameterRegistry reg;
  reg.Register(&a);
  reg.Register(&b);

  const std::string path = Path("ckpt.bin");
  ASSERT_TRUE(io::SaveRegistry(reg, path).ok());

  nn::Parameter a2("layer/w", 4, 6), b2("layer/b", 1, 6);
  nn::ParameterRegistry reg2;
  reg2.Register(&a2);
  reg2.Register(&b2);
  ASSERT_TRUE(io::LoadRegistry(path, &reg2).ok());
  for (size_t i = 0; i < a.value.size(); ++i) {
    EXPECT_EQ(a.value.data()[i], a2.value.data()[i]);
  }
  for (size_t i = 0; i < b.value.size(); ++i) {
    EXPECT_EQ(b.value.data()[i], b2.value.data()[i]);
  }
}

TEST_F(IoTest, RegistryShapeMismatchRejected) {
  Rng rng(3);
  nn::Parameter a("w", 4, 6);
  a.XavierInit(&rng);
  nn::ParameterRegistry reg;
  reg.Register(&a);
  const std::string path = Path("ckpt.bin");
  ASSERT_TRUE(io::SaveRegistry(reg, path).ok());

  nn::Parameter wrong("w", 6, 4);  // transposed shape
  nn::ParameterRegistry reg2;
  reg2.Register(&wrong);
  auto st = io::LoadRegistry(path, &reg2);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shape mismatch"), std::string::npos);
}

TEST_F(IoTest, RegistryNameMismatchRejected) {
  Rng rng(3);
  nn::Parameter a("w", 2, 2);
  a.XavierInit(&rng);
  nn::ParameterRegistry reg;
  reg.Register(&a);
  const std::string path = Path("ckpt.bin");
  ASSERT_TRUE(io::SaveRegistry(reg, path).ok());

  nn::Parameter renamed("w_renamed", 2, 2);
  nn::ParameterRegistry reg2;
  reg2.Register(&renamed);
  EXPECT_FALSE(io::LoadRegistry(path, &reg2).ok());
}

TEST_F(IoTest, RegistryCountMismatchRejected) {
  Rng rng(3);
  nn::Parameter a("w", 2, 2);
  a.XavierInit(&rng);
  nn::ParameterRegistry reg;
  reg.Register(&a);
  const std::string path = Path("ckpt.bin");
  ASSERT_TRUE(io::SaveRegistry(reg, path).ok());

  nn::Parameter a2("w", 2, 2), extra("extra", 1, 1);
  nn::ParameterRegistry reg2;
  reg2.Register(&a2);
  reg2.Register(&extra);
  EXPECT_FALSE(io::LoadRegistry(path, &reg2).ok());
}

TEST_F(IoTest, WrongMagicRejected) {
  BinaryWriter w;
  w.WriteString("this is not a checkpoint");
  const std::string path = Path("junk.bin");
  ASSERT_TRUE(w.WriteToFile(path).ok());
  nn::ParameterRegistry reg;
  auto st = io::LoadRegistry(path, &reg);
  ASSERT_FALSE(st.ok());
}

// ---------------------------------------------------------------------------
// Dataset and road-network files.

TEST_F(IoTest, DatasetBinaryRoundTrip) {
  auto net = testing::SmallGrid();
  auto ds = testing::SmallDataset(net, 4);
  ASSERT_GT(ds.size(), 0u);

  const std::string path = Path("dataset.bin");
  ASSERT_TRUE(io::SaveDataset(ds, path).ok());
  auto loaded = io::LoadDataset(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ((*loaded)[i].traj.id, ds[i].traj.id);
    EXPECT_EQ((*loaded)[i].traj.start_time, ds[i].traj.start_time);
    EXPECT_EQ((*loaded)[i].traj.edges, ds[i].traj.edges);
    EXPECT_EQ((*loaded)[i].labels, ds[i].labels);
  }
  EXPECT_EQ(loaded->NumSdPairs(), ds.NumSdPairs());
}

TEST_F(IoTest, DatasetLabelLengthMismatchRejectedOnSave) {
  traj::LabeledTrajectory lt;
  lt.traj.id = 1;
  lt.traj.edges = {1, 2, 3};
  lt.labels = {0, 1};  // too short
  traj::Dataset ds;
  ds.Add(std::move(lt));
  EXPECT_EQ(io::SaveDataset(ds, Path("bad.bin")).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IoTest, EmptyDatasetRoundTrip) {
  traj::Dataset ds;
  const std::string path = Path("empty.bin");
  ASSERT_TRUE(io::SaveDataset(ds, path).ok());
  auto loaded = io::LoadDataset(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

TEST_F(IoTest, RoadNetworkBinaryRoundTrip) {
  auto net = testing::SmallGrid();
  const std::string path = Path("net.bin");
  ASSERT_TRUE(io::SaveRoadNetwork(net, path).ok());
  auto loaded = io::LoadRoadNetwork(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->NumVertices(), net.NumVertices());
  ASSERT_EQ(loaded->NumEdges(), net.NumEdges());
  for (size_t e = 0; e < net.NumEdges(); ++e) {
    const auto id = static_cast<roadnet::EdgeId>(e);
    EXPECT_EQ(loaded->edge(id).from, net.edge(id).from);
    EXPECT_EQ(loaded->edge(id).to, net.edge(id).to);
    EXPECT_EQ(loaded->edge(id).length_m, net.edge(id).length_m);
    EXPECT_EQ(loaded->edge(id).road_class, net.edge(id).road_class);
    EXPECT_EQ(loaded->EdgeOutDegree(id), net.EdgeOutDegree(id));
    EXPECT_EQ(loaded->EdgeInDegree(id), net.EdgeInDegree(id));
  }
}

TEST_F(IoTest, CorruptDatasetRejected) {
  auto net = testing::SmallGrid();
  auto ds = testing::SmallDataset(net, 2);
  const std::string path = Path("dataset.bin");
  ASSERT_TRUE(io::SaveDataset(ds, path).ok());
  CorruptByte(path, 40);
  EXPECT_FALSE(io::LoadDataset(path).ok());
}

// ---------------------------------------------------------------------------
// Whole-model bundles.

class ModelBundleTest : public IoTest {
 protected:
  /// A tiny trained model (fast settings) shared by the bundle tests.
  static core::Rl4OasdConfig TinyConfig() {
    core::Rl4OasdConfig cfg;
    cfg.rsr.embed_dim = 16;
    cfg.rsr.nrf_dim = 8;
    cfg.rsr.hidden_dim = 16;
    cfg.asd.label_dim = 8;
    cfg.embedding.epochs = 1;
    cfg.pretrain_samples = 40;
    cfg.pretrain_epochs = 1;
    cfg.joint_samples = 40;
    cfg.epochs_per_traj = 1;
    return cfg;
  }

  /// Reads a config section holding the one entry `key` = `value`.
  static Status ReadOneConfigKey(const std::string& key, double value,
                                 core::Rl4OasdConfig* cfg) {
    BinaryWriter w;
    w.WriteU32(1);
    w.WriteString(key);
    w.WriteF64(value);
    BinaryReader r(w.buffer());
    return io::ReadConfigKv(&r, cfg);
  }

  /// Overwrites the stored value of config key `key` in the bundle at
  /// `path` (the f64 right after the key string) and refreshes the CRC, so
  /// the config reader itself must judge the value.
  static void PatchConfigValue(const std::string& path, const std::string& key,
                               double value) {
    const size_t at = testing::ReadFileBytes(path).find(key);
    ASSERT_NE(at, std::string::npos) << key;
    BinaryWriter w;
    w.WriteF64(value);
    ASSERT_TRUE(testing::PatchPayloadWithValidCrc(
        path, at + key.size(), w.buffer().data(), w.buffer().size()));
  }
};

TEST_F(ModelBundleTest, ConfigKvRoundTrip) {
  core::Rl4OasdConfig cfg = TinyConfig();
  cfg.preprocess.alpha = 0.31;
  cfg.detector.delay_d = 5;
  cfg.use_local_reward = false;
  cfg.seed = 1234;

  BinaryWriter w;
  io::WriteConfigKv(cfg, &w);
  BinaryReader r(w.buffer());
  core::Rl4OasdConfig back;  // defaults everywhere
  ASSERT_TRUE(io::ReadConfigKv(&r, &back).ok());
  EXPECT_EQ(back.preprocess.alpha, 0.31);
  EXPECT_EQ(back.detector.delay_d, 5);
  EXPECT_FALSE(back.use_local_reward);
  EXPECT_EQ(back.seed, 1234u);
  EXPECT_EQ(back.rsr.hidden_dim, 16u);
}

TEST_F(ModelBundleTest, SaveLoadPreservesDetection) {
  auto net = testing::SmallGrid();
  auto ds = testing::SmallDataset(net, 5, 0.12);
  core::Rl4Oasd model(&net, TinyConfig());
  model.Fit(ds);

  const std::string path = Path("model.rlmb");
  ASSERT_TRUE(io::SaveModel(model, path).ok());

  auto loaded = io::LoadModel(&net, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The loaded model must reproduce the original's labels exactly on every
  // test trajectory (both detectors are deterministic argmax).
  for (size_t i = 0; i < std::min<size_t>(ds.size(), 60); ++i) {
    EXPECT_EQ((*loaded)->Detect(ds[i].traj), model.Detect(ds[i].traj))
        << "trajectory " << i;
  }
}

TEST_F(ModelBundleTest, LoadAgainstWrongNetworkRejected) {
  auto net = testing::SmallGrid();
  auto ds = testing::SmallDataset(net, 3);
  core::Rl4Oasd model(&net, TinyConfig());
  model.Fit(ds);
  const std::string path = Path("model.rlmb");
  ASSERT_TRUE(io::SaveModel(model, path).ok());

  // A grid with different dimensions has a different edge count.
  roadnet::GridCityConfig cfg;
  cfg.rows = 6;
  cfg.cols = 6;
  cfg.removal_prob = 0.0;
  auto other = roadnet::BuildGridCity(cfg);
  auto loaded = io::LoadModel(&other, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ModelBundleTest, CorruptBundleRejected) {
  auto net = testing::SmallGrid();
  auto ds = testing::SmallDataset(net, 3);
  core::Rl4Oasd model(&net, TinyConfig());
  model.Fit(ds);
  const std::string path = Path("model.rlmb");
  ASSERT_TRUE(io::SaveModel(model, path).ok());
  CorruptByte(path, 100);
  EXPECT_FALSE(io::LoadModel(&net, path).ok());
}

// ---------------------------------------------------------------------------
// Version skew (see tests/README.md, "Version-skew contracts"): a bundle
// stamped by a future build must load to a descriptive error, never a
// crash; a bundle missing config keys must restore compiled-in defaults.

TEST_F(ModelBundleTest, FutureBundleVersionRejectedWithDescriptiveError) {
  auto net = testing::SmallGrid();
  core::Rl4Oasd model(&net, TinyConfig());  // untrained is enough
  const std::string path = Path("model.rlmb");
  ASSERT_TRUE(io::SaveModel(model, path).ok());

  // Stamp the version field (payload offset 4, little-endian) with
  // version+1 and refresh the CRC, so the *parser* rejects it.
  const uint32_t future = io::kModelBundleVersion + 1;
  unsigned char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<unsigned char>((future >> (8 * i)) & 0xFFu);
  }
  ASSERT_TRUE(testing::PatchPayloadWithValidCrc(path, 4, bytes, 4));

  const auto loaded = io::LoadModel(&net, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(ModelBundleTest, AbsentConfigKeysRestoreDefaults) {
  // Key-value level: a bundle written before a config field existed simply
  // lacks its key — reading must keep the compiled-in default.
  BinaryWriter w;
  w.WriteU32(2);
  w.WriteString("preprocess.alpha");
  w.WriteF64(0.42);
  w.WriteString("a.key.from.the.future");  // unknown keys are skipped
  w.WriteF64(7.0);
  BinaryReader r(w.buffer());
  core::Rl4OasdConfig cfg;
  const core::Rl4OasdConfig defaults;
  ASSERT_TRUE(io::ReadConfigKv(&r, &cfg).ok());
  EXPECT_EQ(cfg.preprocess.alpha, 0.42);
  EXPECT_EQ(cfg.detector.delay_d, defaults.detector.delay_d);
  EXPECT_EQ(cfg.rsr.hidden_dim, defaults.rsr.hidden_dim);
  EXPECT_EQ(cfg.noisy_anchor_prob, defaults.noisy_anchor_prob);
}

TEST_F(ModelBundleTest, BundleWithAbsentConfigKeysStillLoads) {
  // Whole-bundle level: strip non-architectural keys out of a real bundle's
  // kv section and splice the rest back together — the bundle must load
  // and the stripped fields must come back as defaults.
  auto net = testing::SmallGrid();
  core::Rl4OasdConfig cfg = TinyConfig();
  cfg.detector.delay_d = 6;         // non-default, about to be stripped
  cfg.joint_samples = 9999;         // likewise
  core::Rl4Oasd model(&net, cfg);
  const std::string path = Path("model.rlmb");
  ASSERT_TRUE(io::SaveModel(model, path).ok());

  auto reader = BinaryReader::OpenFile(path);
  ASSERT_TRUE(reader.ok());
  char magic[4];
  uint32_t version, kv_count;
  ASSERT_TRUE(reader->ReadBytes(magic, 4).ok());
  ASSERT_TRUE(reader->ReadU32(&version).ok());
  ASSERT_TRUE(reader->ReadU32(&kv_count).ok());
  BinaryWriter kv;  // the filtered kv entries (count prepended later)
  uint32_t kept = 0;
  for (uint32_t i = 0; i < kv_count; ++i) {
    std::string key;
    double value;
    ASSERT_TRUE(reader->ReadString(&key).ok());
    ASSERT_TRUE(reader->ReadF64(&value).ok());
    if (key == "detector.delay_d" || key == "train.joint_samples") continue;
    kv.WriteString(key);
    kv.WriteF64(value);
    ++kept;
  }
  ASSERT_EQ(kept, kv_count - 2);
  BinaryWriter spliced;
  spliced.WriteBytes(magic, 4);
  spliced.WriteU32(version);
  spliced.WriteU32(kept);
  spliced.WriteBytes(kv.buffer().data(), kv.buffer().size());
  // Everything after the kv section is untouched payload.
  std::string rest(reader->remaining(), '\0');
  ASSERT_TRUE(reader->ReadBytes(rest.data(), rest.size()).ok());
  spliced.WriteBytes(rest.data(), rest.size());
  ASSERT_TRUE(spliced.WriteToFile(path).ok());

  const auto loaded = io::LoadModel(&net, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const core::Rl4OasdConfig defaults;
  EXPECT_EQ((*loaded)->config().detector.delay_d,
            defaults.detector.delay_d);
  EXPECT_EQ((*loaded)->config().joint_samples, defaults.joint_samples);
  // The kept architecture keys still apply.
  EXPECT_EQ((*loaded)->config().rsr.hidden_dim, 16u);
}

TEST_F(ModelBundleTest, ConfigValuesOutsideTheirFieldsAreRejected) {
  // Key-value level: every stored value must fit its field before it
  // reaches the config — a non-finite value, or an integral field's value
  // that is fractional or outside the type, would otherwise convert with
  // undefined behaviour, and a zero time slot trips the Preprocessor's
  // CHECK. Each must be an InvalidArgument naming the key.
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* key;
    double value;
  } cases[] = {
      {"preprocess.time_slot_hours", 0.0},
      {"rsr.hidden_dim", -1.0},
      {"preprocess.alpha", std::nan("")},
      {"rsr.lr", inf},
      {"rsr.lr", 1e300},                     // past float
      {"rsr.embed_dim", 2.5},                // not an integer
      {"detector.delay_d", 2147483648.0},    // 2^31: past int
      {"rsr.seed", 18446744073709551616.0},  // 2^64: past uint64_t
  };
  for (const auto& c : cases) {
    core::Rl4OasdConfig cfg;
    const Status st = ReadOneConfigKey(c.key, c.value, &cfg);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << c.key << " = " << c.value << ": " << st.ToString();
    EXPECT_NE(st.ToString().find(c.key), std::string::npos) << st.ToString();
  }
  // The edges of each range still load.
  core::Rl4OasdConfig cfg;
  ASSERT_TRUE(ReadOneConfigKey("preprocess.time_slot_hours", 1.0, &cfg).ok());
  EXPECT_EQ(cfg.preprocess.time_slot_hours, 1);
  ASSERT_TRUE(ReadOneConfigKey("detector.delay_d", 2147483647.0, &cfg).ok());
  EXPECT_EQ(cfg.detector.delay_d, 2147483647);
  ASSERT_TRUE(ReadOneConfigKey("rsr.seed", 18446744073709549568.0, &cfg).ok());
  EXPECT_EQ(cfg.rsr.seed, 18446744073709549568u);  // 2^64 - 2^11
  // An unknown key is skipped whatever it holds.
  EXPECT_TRUE(
      ReadOneConfigKey("a.key.from.the.future", std::nan(""), &cfg).ok());
}

TEST_F(ModelBundleTest, EmbeddingConfigBelowTheTrainersMinimumsIsRejected) {
  // Values the skip-gram trainer cannot run with: a window of 0 divided by
  // zero drawing the window (SIGFPE) and a negative one hung Fit. They fit
  // their int fields, so only the per-key minimums stop them.
  const struct {
    const char* key;
    double value;
  } cases[] = {
      {"embedding.window", 0.0},
      {"embedding.window", -2.0},
      {"embedding.negatives", -1.0},
      {"embedding.walk_length", 0.0},
      {"embedding.dim", 0.0},
      {"embedding.epochs", -1.0},
      {"embedding.random_walks_per_edge", -1.0},
  };
  for (const auto& c : cases) {
    core::Rl4OasdConfig cfg;
    const Status st = ReadOneConfigKey(c.key, c.value, &cfg);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << c.key << " = " << c.value << ": " << st.ToString();
    EXPECT_NE(st.ToString().find(c.key), std::string::npos) << st.ToString();
  }
  // Each minimum itself still loads, and so does every value a default
  // config writes.
  core::Rl4OasdConfig cfg;
  ASSERT_TRUE(ReadOneConfigKey("embedding.window", 1.0, &cfg).ok());
  EXPECT_EQ(cfg.embedding.window, 1);
  ASSERT_TRUE(ReadOneConfigKey("embedding.negatives", 0.0, &cfg).ok());
  EXPECT_EQ(cfg.embedding.negatives, 0);
  ASSERT_TRUE(ReadOneConfigKey("embedding.walk_length", 1.0, &cfg).ok());
  ASSERT_TRUE(ReadOneConfigKey("embedding.dim", 1.0, &cfg).ok());
  ASSERT_TRUE(ReadOneConfigKey("embedding.epochs", 0.0, &cfg).ok());
  ASSERT_TRUE(
      ReadOneConfigKey("embedding.random_walks_per_edge", 0.0, &cfg).ok());
  BinaryWriter w;
  io::WriteConfigKv(core::Rl4OasdConfig{}, &w);
  BinaryReader r(w.buffer());
  EXPECT_TRUE(io::ReadConfigKv(&r, &cfg).ok());
}

TEST_F(ModelBundleTest, BundleWithOutOfRangeConfigValueLoadsToError) {
  // Whole-bundle level: a CRC-valid bundle with one patched config value
  // loads to an InvalidArgument, never an abort. The model dimensions are
  // bounded by the weights the payload holds, before the constructors
  // allocate any: rsr.embed_dim = 2^62 wraps the tcf table's size (a
  // crash), and rsr.hidden_dim = 1e6 or 2^33 asks for terabytes.
  auto net = testing::SmallGrid();
  core::Rl4Oasd model(&net, TinyConfig());  // untrained is enough
  for (const auto& [key, value] :
       {std::pair<std::string, double>{"preprocess.time_slot_hours", 0.0},
        {"rsr.hidden_dim", -1.0},
        {"rsr.embed_dim", std::ldexp(1.0, 62)},
        {"rsr.hidden_dim", 1e6},
        {"rsr.hidden_dim", std::ldexp(1.0, 33)}}) {
    const std::string path = Path("model.rlmb");
    ASSERT_TRUE(io::SaveModel(model, path).ok());
    ASSERT_NO_FATAL_FAILURE(PatchConfigValue(path, key, value));
    const auto loaded = io::LoadModel(&net, path);
    ASSERT_FALSE(loaded.ok()) << key;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find(key), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(ModelBundleTest, ParameterCountMatchesTheRegistries) {
  // The loader's allocation bound counts what the constructors allocate.
  auto net = testing::SmallGrid();
  for (const core::Rl4OasdConfig& cfg :
       {TinyConfig(), core::Rl4OasdConfig{}}) {
    core::Rl4Oasd model(&net, cfg);
    EXPECT_EQ(core::Rl4Oasd::ParameterCount(cfg, net.NumEdges()),
              model.mutable_rsrnet()->registry()->NumWeights() +
                  model.mutable_asdnet()->registry()->NumWeights());
  }
  core::Rl4OasdConfig wide;
  wide.rsr.hidden_dim = size_t{1} << 33;  // 4H x H wraps size_t
  EXPECT_FALSE(core::Rl4Oasd::ParameterCount(wide, 1).has_value());
}

TEST_F(ModelBundleTest, RetiredRecurrentCoreKeysAreRefused) {
  // RSRNet's core is the single-layer LSTM. Older builds could also write
  // a GRU (rsr.rnn_kind = 1) or a stacked core (rsr.num_layers > 1); such
  // a bundle must fail on the config key that names it, not deep in the
  // tensor reader.
  for (const auto& [key, value] :
       {std::pair<std::string, double>{"rsr.rnn_kind", 1.0},
        {"rsr.num_layers", 2.0}}) {
    core::Rl4OasdConfig cfg;
    const Status st = ReadOneConfigKey(key, value, &cfg);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
    EXPECT_NE(st.ToString().find(key), std::string::npos) << st.ToString();
  }

  // The same at the bundle level, and the pristine bundle still carries
  // both keys at the LSTM's values and loads.
  auto net = testing::SmallGrid();
  core::Rl4Oasd model(&net, TinyConfig());
  const std::string path = Path("model.rlmb");
  ASSERT_TRUE(io::SaveModel(model, path).ok());
  ASSERT_TRUE(io::LoadModel(&net, path).ok());
  auto desc = io::DescribeModel(path);
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  std::map<std::string, double> kv(desc->config.begin(), desc->config.end());
  ASSERT_EQ(kv.count("rsr.rnn_kind"), 1u);
  ASSERT_EQ(kv.count("rsr.num_layers"), 1u);
  EXPECT_EQ(kv["rsr.rnn_kind"], 0.0);
  EXPECT_EQ(kv["rsr.num_layers"], 1.0);

  ASSERT_NO_FATAL_FAILURE(PatchConfigValue(path, "rsr.rnn_kind", 1.0));
  const auto gru = io::LoadModel(&net, path);
  ASSERT_FALSE(gru.ok());
  EXPECT_EQ(gru.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(gru.status().ToString().find("rsr.rnn_kind"), std::string::npos)
      << gru.status().ToString();
}

TEST_F(ModelBundleTest, PreprocessorStateSurvivesRoundTrip) {
  auto ex = testing::MakeFigure1Example();
  core::Rl4OasdConfig cfg = TinyConfig();
  cfg.joint_samples = 10;
  core::Rl4Oasd model(&ex.net, cfg);
  model.Fit(ex.dataset);

  const std::string path = Path("fig1.rlmb");
  ASSERT_TRUE(io::SaveModel(model, path).ok());
  auto loaded = io::LoadModel(&ex.net, path);
  ASSERT_TRUE(loaded.ok());

  // Transition fractions from the worked example must be identical.
  traj::MapMatchedTrajectory t3;
  t3.edges = ex.t3;
  t3.start_time = 9 * 3600.0;
  EXPECT_EQ((*loaded)->preprocessor().TransitionFractions(t3),
            model.preprocessor().TransitionFractions(t3));
  EXPECT_EQ((*loaded)->preprocessor().NumGroups(),
            model.preprocessor().NumGroups());
}

TEST_F(ModelBundleTest, DescribeModelMatchesTrainedModel) {
  auto net = testing::SmallGrid();
  auto ds = testing::SmallDataset(net, 3);
  core::Rl4Oasd model(&net, TinyConfig());
  model.Fit(ds);
  const std::string path = Path("model.rlmb");
  ASSERT_TRUE(io::SaveModel(model, path).ok());

  auto desc = io::DescribeModel(path);
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  EXPECT_EQ(desc->version, io::kModelBundleVersion);
  EXPECT_EQ(desc->num_trajs, static_cast<int64_t>(ds.size()));
  EXPECT_GT(desc->num_groups, 0u);
  // Tensor inventory: RSRNet has tcf + nrf embeddings, 3 LSTM tensors, and
  // a 2-tensor head; ASDNet a label embedding and a 2-tensor policy.
  EXPECT_EQ(desc->rsr_tensors.size(), 7u);
  EXPECT_EQ(desc->asd_tensors.size(), 3u);
  size_t rsr_weights = 0;
  for (const auto& t : desc->rsr_tensors) rsr_weights += t.rows * t.cols;
  EXPECT_EQ(rsr_weights, model.mutable_rsrnet()->registry()->NumWeights());
  size_t total = rsr_weights;
  for (const auto& t : desc->asd_tensors) total += t.rows * t.cols;
  EXPECT_EQ(desc->total_weights, total);
  // Config keys round-trip (spot check a couple).
  bool saw_alpha = false;
  for (const auto& [key, value] : desc->config) {
    if (key == "preprocess.alpha") {
      saw_alpha = true;
      EXPECT_EQ(value, model.config().preprocess.alpha);
    }
  }
  EXPECT_TRUE(saw_alpha);
}

TEST_F(ModelBundleTest, DescribeModelRejectsNonBundles) {
  BinaryWriter w;
  w.WriteString("junk");
  const std::string path = Path("junk.bin");
  ASSERT_TRUE(w.WriteToFile(path).ok());
  EXPECT_FALSE(io::DescribeModel(path).ok());
  EXPECT_FALSE(io::DescribeModel(Path("missing.rlmb")).ok());
}

}  // namespace
}  // namespace rl4oasd
