// Fuzz-style robustness tests for the binary formats: randomized round
// trips swept over seeds, plus systematic truncation and byte-corruption
// sweeps over every format. The invariant under attack: a damaged file must
// yield a non-OK Status — never a crash, hang, huge allocation, or silently
// wrong data. Because every file carries a whole-payload CRC32, *any*
// corruption must be detected; truncation tests additionally exercise the
// bounds-checked readers by rewriting a valid CRC over the truncated
// payload.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/binary.h"
#include "io/checkpoint.h"
#include "io/dataset_io.h"
#include "io/fleet_snapshot.h"
#include "io/model_io.h"
#include "serve/fleet.h"
#include "test_util.h"

namespace rl4oasd {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  return testing::ReadFileBytes(path);
}

void WriteFile(const std::string& path, const std::string& content) {
  testing::WriteFileBytes(path, content);
}

/// Truncates the payload to `keep` bytes and appends a *valid* CRC over the
/// truncated payload, so the reader proper (not just the CRC check) must
/// reject it.
void TruncateWithValidCrc(const std::string& path, size_t keep) {
  std::string content = ReadFile(path);
  ASSERT_GE(content.size(), 4u);
  content.resize(std::min(keep, content.size() - 4));
  const uint32_t crc = Crc32(content.data(), content.size());
  for (int i = 0; i < 4; ++i) {
    content.push_back(static_cast<char>((crc >> (8 * i)) & 0xFFu));
  }
  WriteFile(path, content);
}

/// Targeted field lies that the parser itself (not the CRC) must reject;
/// the byte surgery lives in testing::PatchPayloadWithValidCrc.
void PatchPayloadWithValidCrc(const std::string& path, size_t offset,
                              const void* bytes, size_t count) {
  ASSERT_TRUE(testing::PatchPayloadWithValidCrc(path, offset, bytes, count));
}

class IoFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rl4oasd_fuzz_" +
            std::to_string(GetParam()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_P(IoFuzzTest, RandomPayloadRoundTrips) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    BinaryWriter w;
    // A random interleaving of primitives, mirrored for verification.
    std::string script;
    std::vector<uint64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    const int ops = 1 + static_cast<int>(rng.UniformInt(uint64_t{30}));
    for (int i = 0; i < ops; ++i) {
      switch (rng.UniformInt(uint64_t{3})) {
        case 0: {
          ints.push_back(rng.NextU64());
          w.WriteU64(ints.back());
          script += 'u';
          break;
        }
        case 1: {
          doubles.push_back(rng.Gaussian(0, 1e6));
          w.WriteF64(doubles.back());
          script += 'd';
          break;
        }
        default: {
          std::string s(rng.UniformInt(uint64_t{64}), 'x');
          for (auto& c : s) c = static_cast<char>(rng.UniformInt(32, 126));
          strings.push_back(s);
          w.WriteString(s);
          script += 's';
          break;
        }
      }
    }
    const std::string path = Path("payload.bin");
    ASSERT_TRUE(w.WriteToFile(path).ok());
    auto r = BinaryReader::OpenFile(path);
    ASSERT_TRUE(r.ok());
    size_t iu = 0, id = 0, is = 0;
    for (char op : script) {
      if (op == 'u') {
        uint64_t v;
        ASSERT_TRUE(r->ReadU64(&v).ok());
        EXPECT_EQ(v, ints[iu++]);
      } else if (op == 'd') {
        double v;
        ASSERT_TRUE(r->ReadF64(&v).ok());
        EXPECT_EQ(v, doubles[id++]);
      } else {
        std::string v;
        ASSERT_TRUE(r->ReadString(&v).ok());
        EXPECT_EQ(v, strings[is++]);
      }
    }
    EXPECT_TRUE(r->AtEnd());
  }
}

TEST_P(IoFuzzTest, DatasetSurvivesAnySingleByteCorruption) {
  auto net = testing::SmallGrid();
  auto ds = testing::SmallDataset(net, 2, 0.1, GetParam());
  // Shrink to a handful of trajectories so the byte sweep stays fast.
  std::vector<traj::LabeledTrajectory> few(ds.trajs().begin(),
                                           ds.trajs().begin() + 5);
  const traj::Dataset small(std::move(few));
  const std::string path = Path("ds.bin");
  ASSERT_TRUE(io::SaveDataset(small, path).ok());
  const std::string pristine = ReadFile(path);

  Rng rng(GetParam() ^ 0xF00F);
  for (int trial = 0; trial < 60; ++trial) {
    std::string damaged = pristine;
    const size_t pos = rng.UniformInt(damaged.size());
    damaged[pos] = static_cast<char>(damaged[pos] ^
                                     (1u << rng.UniformInt(uint64_t{8})));
    WriteFile(path, damaged);
    auto loaded = io::LoadDataset(path);
    // The CRC covers every payload byte and itself: any flip is an error.
    EXPECT_FALSE(loaded.ok()) << "byte " << pos;
  }
}

TEST_P(IoFuzzTest, DatasetRejectsEveryTruncationPoint) {
  auto net = testing::SmallGrid();
  auto ds = testing::SmallDataset(net, 2, 0.1, GetParam());
  std::vector<traj::LabeledTrajectory> few(ds.trajs().begin(),
                                           ds.trajs().begin() + 3);
  const traj::Dataset small(std::move(few));
  const std::string path = Path("ds.bin");
  ASSERT_TRUE(io::SaveDataset(small, path).ok());
  const size_t payload = ReadFile(path).size() - 4;

  // Every prefix of the payload (with a freshly valid CRC) must be rejected
  // by the parser itself — truncation can land mid-field anywhere.
  Rng rng(GetParam() ^ 0xABAB);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t keep = rng.UniformInt(payload);  // strictly shorter
    ASSERT_TRUE(io::SaveDataset(small, path).ok());
    TruncateWithValidCrc(path, keep);
    auto loaded = io::LoadDataset(path);
    EXPECT_FALSE(loaded.ok()) << "kept " << keep << " of " << payload;
  }
}

TEST_P(IoFuzzTest, RoadNetworkRejectsEveryTruncationPoint) {
  roadnet::GridCityConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.seed = GetParam();
  const auto net = roadnet::BuildGridCity(cfg);
  const std::string path = Path("net.bin");
  ASSERT_TRUE(io::SaveRoadNetwork(net, path).ok());
  const size_t payload = ReadFile(path).size() - 4;

  Rng rng(GetParam() ^ 0x1221);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t keep = rng.UniformInt(payload);
    ASSERT_TRUE(io::SaveRoadNetwork(net, path).ok());
    TruncateWithValidCrc(path, keep);
    EXPECT_FALSE(io::LoadRoadNetwork(path).ok()) << "kept " << keep;
  }
}

TEST_P(IoFuzzTest, CheckpointRejectsEveryTruncationPoint) {
  Rng rng(GetParam());
  nn::Parameter a("layer/w", 6, 8), b("layer/b", 1, 8);
  a.XavierInit(&rng);
  b.XavierInit(&rng);
  nn::ParameterRegistry reg;
  reg.Register(&a);
  reg.Register(&b);
  const std::string path = Path("ckpt.bin");
  ASSERT_TRUE(io::SaveRegistry(reg, path).ok());
  const size_t payload = ReadFile(path).size() - 4;

  for (int trial = 0; trial < 40; ++trial) {
    const size_t keep = rng.UniformInt(payload);
    ASSERT_TRUE(io::SaveRegistry(reg, path).ok());
    TruncateWithValidCrc(path, keep);
    nn::Parameter a2("layer/w", 6, 8), b2("layer/b", 1, 8);
    nn::ParameterRegistry reg2;
    reg2.Register(&a2);
    reg2.Register(&b2);
    EXPECT_FALSE(io::LoadRegistry(path, &reg2).ok()) << "kept " << keep;
  }
}

TEST_P(IoFuzzTest, GarbageFilesNeverParse) {
  Rng rng(GetParam() ^ 0x6666);
  auto net = testing::SmallGrid();
  for (int trial = 0; trial < 25; ++trial) {
    // Random bytes with a valid CRC footer: magic/structure checks must
    // reject them (a 1-in-4-billion magic collision aside, the sizes and
    // counts that follow cannot all validate).
    std::string garbage(1 + rng.UniformInt(uint64_t{400}), '\0');
    for (auto& c : garbage) {
      c = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    const uint32_t crc = Crc32(garbage.data(), garbage.size());
    for (int i = 0; i < 4; ++i) {
      garbage.push_back(static_cast<char>((crc >> (8 * i)) & 0xFFu));
    }
    const std::string path = Path("garbage.bin");
    WriteFile(path, garbage);
    EXPECT_FALSE(io::LoadDataset(path).ok());
    EXPECT_FALSE(io::LoadRoadNetwork(path).ok());
    EXPECT_FALSE(io::LoadModel(&net, path).ok());
    EXPECT_FALSE(io::DescribeModel(path).ok());
    EXPECT_FALSE(io::DescribeFleetSnapshot(path).ok());
  }
}

// ---------------------------------------------------------------------------
// Fleet snapshot format (serve::FleetMonitor::Snapshot/Restore +
// io::DescribeFleetSnapshot). The attack surface is larger than the other
// formats because restore reconstructs live sessions: every count, edge id,
// label, run bound, and hidden-state length in a trip record is hostile
// input and must fail with a clean Status, never UB.

/// A tiny live fleet over an *untrained* model (snapshot robustness does
/// not depend on detection quality) with a snapshot written to disk.
class FleetSnapshotFuzz : public IoFuzzTest {
 protected:
  void BuildSnapshot(const std::string& meta = "fuzz") {
    net_ = std::make_unique<roadnet::RoadNetwork>(testing::SmallGrid());
    core::Rl4OasdConfig cfg;
    cfg.rsr.embed_dim = 16;
    cfg.rsr.nrf_dim = 8;
    cfg.rsr.hidden_dim = 16;
    cfg.asd.label_dim = 8;
    cfg.seed = GetParam();
    model_ = std::make_unique<core::Rl4Oasd>(net_.get(), cfg);
    monitor_ = std::make_unique<serve::FleetMonitor>(
        model_.get(), serve::FleetConfig{}, nullptr);
    const auto ds = testing::SmallDataset(*net_, 2, 0.1, GetParam());
    int started = 0;
    for (const auto& lt : ds.trajs()) {
      const auto& t = lt.traj;
      if (t.edges.size() < 4) continue;
      const int64_t vid = started;
      ASSERT_TRUE(monitor_->StartTrip(vid, t.sd(), t.start_time).ok());
      for (size_t i = 0; i + 1 < t.edges.size(); ++i) {
        ASSERT_TRUE(monitor_->Feed(vid, t.edges[i], t.start_time).ok());
      }
      if (++started == 4) break;
    }
    ASSERT_EQ(started, 4);
    BinaryWriter w;
    ASSERT_TRUE(monitor_->Snapshot(&w, meta).ok());
    path_ = Path("fleet.snap");
    ASSERT_TRUE(w.WriteToFile(path_).ok());
  }

  /// Restores `path_` into a fresh monitor over the same model.
  Status TryRestore() {
    serve::FleetMonitor fresh(model_.get(), serve::FleetConfig{}, nullptr);
    auto r = BinaryReader::OpenFile(path_);
    if (!r.ok()) return r.status();
    return fresh.Restore(&*r);
  }

  std::unique_ptr<roadnet::RoadNetwork> net_;
  std::unique_ptr<core::Rl4Oasd> model_;
  std::unique_ptr<serve::FleetMonitor> monitor_;
  std::string path_;
};

TEST_P(FleetSnapshotFuzz, PristineSnapshotRoundTrips) {
  BuildSnapshot();
  EXPECT_TRUE(io::DescribeFleetSnapshot(path_).ok());
  EXPECT_TRUE(TryRestore().ok());
}

TEST_P(FleetSnapshotFuzz, SurvivesAnySingleByteCorruption) {
  BuildSnapshot();
  const std::string pristine = ReadFile(path_);
  Rng rng(GetParam() ^ 0xBEEF);
  for (int trial = 0; trial < 40; ++trial) {
    std::string damaged = pristine;
    const size_t pos = rng.UniformInt(damaged.size());
    damaged[pos] = static_cast<char>(damaged[pos] ^
                                     (1u << rng.UniformInt(uint64_t{8})));
    WriteFile(path_, damaged);
    // The CRC covers every payload byte and itself: any flip is an error.
    EXPECT_FALSE(io::DescribeFleetSnapshot(path_).ok()) << "byte " << pos;
    EXPECT_FALSE(TryRestore().ok()) << "byte " << pos;
  }
}

TEST_P(FleetSnapshotFuzz, RejectsEveryTruncationPoint) {
  BuildSnapshot();
  const std::string pristine = ReadFile(path_);
  const size_t payload = pristine.size() - 4;
  Rng rng(GetParam() ^ 0x51AB);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t keep = rng.UniformInt(payload);  // strictly shorter
    WriteFile(path_, pristine);
    TruncateWithValidCrc(path_, keep);
    EXPECT_FALSE(io::DescribeFleetSnapshot(path_).ok()) << "kept " << keep;
    EXPECT_FALSE(TryRestore().ok()) << "kept " << keep;
  }
}

TEST_P(FleetSnapshotFuzz, WrongMagicRejected) {
  BuildSnapshot();
  const char bad[4] = {'R', 'L', 'M', 'B'};  // a model bundle's magic
  PatchPayloadWithValidCrc(path_, 0, bad, 4);
  const auto desc = io::DescribeFleetSnapshot(path_);
  ASSERT_FALSE(desc.ok());
  EXPECT_NE(desc.status().ToString().find("magic"), std::string::npos);
  EXPECT_FALSE(TryRestore().ok());
  // And the cross-format confusion is caught on the other side too: a
  // snapshot wearing a bundle magic is still not a model bundle.
  EXPECT_FALSE(io::DescribeModel(path_).ok());
}

TEST_P(FleetSnapshotFuzz, FutureVersionRejectedWithDescriptiveError) {
  BuildSnapshot();
  const uint32_t future = io::kFleetSnapshotVersion + 1;
  PatchPayloadWithValidCrc(path_, 4, &future, 4);  // little-endian host in CI
  const auto desc = io::DescribeFleetSnapshot(path_);
  ASSERT_FALSE(desc.ok());
  EXPECT_NE(desc.status().ToString().find("version"), std::string::npos)
      << desc.status().ToString();
  const Status st = TryRestore();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("version"), std::string::npos);
}

TEST_P(FleetSnapshotFuzz, FingerprintMismatchRejectedOnRestoreOnly) {
  BuildSnapshot();
  const std::string pristine = ReadFile(path_);
  uint8_t flipped = static_cast<uint8_t>(pristine[8]) ^ 0xFF;
  PatchPayloadWithValidCrc(path_, 8, &flipped, 1);
  // Describe is model-free metadata and still parses; restore must refuse
  // to marry live hidden states to a different model.
  EXPECT_TRUE(io::DescribeFleetSnapshot(path_).ok());
  const Status st = TryRestore();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.ToString().find("fingerprint"), std::string::npos);
}

TEST_P(FleetSnapshotFuzz, TripCountLieRejected) {
  BuildSnapshot("fuzz");  // meta length pins the trip-count offset below
  // Layout: magic(4) version(4) fingerprint(8) meta(4+4) stats(136) -> 160.
  const uint64_t lie = ~uint64_t{0} / 2;
  PatchPayloadWithValidCrc(path_, 160, &lie, 8);
  EXPECT_FALSE(io::DescribeFleetSnapshot(path_).ok());
  EXPECT_FALSE(TryRestore().ok());
}

TEST_P(FleetSnapshotFuzz, NegativeCounterRejectedOnRestore) {
  BuildSnapshot("fuzz");
  const std::string pristine = ReadFile(path_);
  // The 17 service counters sit at payload offsets 24, 32, ..., 152 (after
  // magic, version, fingerprint and the 4-byte-prefixed meta "fuzz"). A
  // negative value and one whose next bump would wrap are both lies.
  const int64_t lies[] = {-5, std::numeric_limits<int64_t>::max()};
  for (const int64_t lie : lies) {
    for (size_t i = 0; i < 17; ++i) {
      WriteFile(path_, pristine);
      PatchPayloadWithValidCrc(path_, 24 + 8 * i, &lie, 8);
      const Status st = TryRestore();
      ASSERT_FALSE(st.ok()) << "counter " << i << " = " << lie;
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << "counter " << i << " = " << lie << ": " << st.ToString();
    }
  }
}

TEST_P(FleetSnapshotFuzz, TripCounterOverflowRejectedOnRestore) {
  BuildSnapshot("fuzz");
  // Restore re-derives trips_started as finished + evicted + live trips;
  // forged maximal counters must be refused, not overflow the sum.
  const int64_t huge = std::numeric_limits<int64_t>::max();
  PatchPayloadWithValidCrc(path_, 24 + 8 * 1, &huge, 8);  // trips_finished
  PatchPayloadWithValidCrc(path_, 24 + 8 * 4, &huge, 8);  // trips_evicted
  const Status st = TryRestore();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetSnapshotFuzz,
                         ::testing::Values(uint64_t{1}, uint64_t{37},
                                           uint64_t{911}));

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzzTest,
                         ::testing::Values(uint64_t{1}, uint64_t{37},
                                           uint64_t{911}));

}  // namespace
}  // namespace rl4oasd
