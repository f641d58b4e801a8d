#include "fadewich/persist/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "fadewich/common/error.hpp"
#include "fadewich/common/rng.hpp"
#include "fadewich/ml/dataset.hpp"

namespace fadewich::persist {
namespace {

constexpr std::size_t kStreams = 4;
constexpr std::size_t kWorkstations = 2;

core::SystemConfig small_config() {
  core::SystemConfig config;
  config.tick_hz = 5.0;
  config.md.calibration = 4.0;  // 20 ticks, keeps tests fast
  config.md.std_window = 1.0;
  return config;
}

/// A system with real learned state: calibrated profile, ticked clock,
/// KMA inputs, and a trained classifier.
core::FadewichSystem warmed_system() {
  core::FadewichSystem system(kStreams, kWorkstations, small_config());
  Rng rng(99);
  std::vector<double> row(kStreams);
  for (int t = 0; t < 60; ++t) {
    for (double& v : row) v = -50.0 + rng.normal() * 0.5;
    system.step(row);
  }
  system.record_input(0, 10.0);
  system.record_input(1, 11.5);

  ml::Dataset samples;
  Rng feature_rng(7);
  const std::size_t n_features = core::kFeaturesPerStream * kStreams;
  for (int label = 0; label < 3; ++label) {
    for (int i = 0; i < 6; ++i) {
      std::vector<double> x(n_features);
      for (double& v : x) v = feature_rng.normal(label * 2.0, 0.3);
      samples.add(std::move(x), label);
    }
  }
  system.train_with(samples);
  return system;
}

Snapshot warmed_snapshot() {
  Snapshot snapshot;
  snapshot.system = warmed_system().export_state();
  return snapshot;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SnapshotTest, EncodeDecodeRoundTripsEverything) {
  const Snapshot original = warmed_snapshot();
  const std::string bytes = encode_snapshot(original);
  const Snapshot decoded = decode_snapshot(bytes);

  EXPECT_EQ(decoded.system.tick, original.system.tick);
  EXPECT_EQ(decoded.system.training, original.system.training);
  EXPECT_EQ(decoded.system.md.profile_samples,
            original.system.md.profile_samples);
  EXPECT_EQ(decoded.system.md.profile_queue,
            original.system.md.profile_queue);
  EXPECT_EQ(decoded.system.kma_last_input, original.system.kma_last_input);
  ASSERT_EQ(decoded.system.sessions.size(),
            original.system.sessions.size());
  EXPECT_EQ(decoded.system.re_trained, original.system.re_trained);
  ASSERT_EQ(decoded.system.re.machines.size(),
            original.system.re.machines.size());
  for (std::size_t i = 0; i < decoded.system.re.machines.size(); ++i) {
    EXPECT_EQ(decoded.system.re.machines[i].svm.support_x,
              original.system.re.machines[i].svm.support_x);
    EXPECT_EQ(decoded.system.re.machines[i].svm.bias,
              original.system.re.machines[i].svm.bias);
  }
}

TEST(SnapshotTest, RestoredSystemClassifiesIdentically) {
  core::FadewichSystem source = warmed_system();
  const std::string bytes = encode_snapshot({source.export_state()});

  core::FadewichSystem restored(kStreams, kWorkstations, small_config());
  restored.import_state(decode_snapshot(bytes).system);

  EXPECT_EQ(restored.now(), source.now());
  EXPECT_EQ(restored.training(), source.training());
  EXPECT_EQ(restored.md().profile().threshold(),
            source.md().profile().threshold());
  Rng rng(3);
  const std::size_t n_features = core::kFeaturesPerStream * kStreams;
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x(n_features);
    for (double& v : x) v = rng.normal(1.0, 2.0);
    EXPECT_EQ(restored.re().classify(x), source.re().classify(x));
  }
}

TEST(SnapshotTest, EveryCorruptByteIsDetected) {
  const std::string clean = encode_snapshot(warmed_snapshot());
  // Flipping any single byte must throw, never return garbage.  Stride
  // through the file to keep the test fast; cover the frame edges.
  std::vector<std::size_t> positions{0, 1, 4, 5, 8, clean.size() - 1,
                                     clean.size() - 5, clean.size() - 9};
  for (std::size_t p = 16; p + 16 < clean.size(); p += 97) {
    positions.push_back(p);
  }
  for (std::size_t p : positions) {
    std::string corrupt = clean;
    corrupt[p] = static_cast<char>(corrupt[p] ^ 0x40);
    EXPECT_THROW(decode_snapshot(corrupt), Error) << "byte " << p;
  }
}

TEST(SnapshotTest, TruncationAtAnyPointIsDetected) {
  const std::string clean = encode_snapshot(warmed_snapshot());
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{7},
                           clean.size() / 2, clean.size() - 1}) {
    EXPECT_THROW(decode_snapshot(clean.substr(0, keep)), Error)
        << "kept " << keep << " bytes";
  }
}

TEST(SnapshotTest, RejectsUnsupportedVersion) {
  std::string bytes = encode_snapshot(warmed_snapshot());
  bytes[4] = 99;  // version field follows the 4-byte magic
  EXPECT_THROW(decode_snapshot(bytes), Error);
}

TEST(SnapshotTest, RejectsForeignFile) {
  EXPECT_THROW(decode_snapshot("GIF89a not a snapshot at all"), Error);
}

TEST(SnapshotTest, SaveLoadRoundTripsThroughDisk) {
  const std::string path = temp_path("fadewich_snapshot_test.fdws");
  const Snapshot original = warmed_snapshot();
  save_snapshot(original, path);
  const Snapshot loaded = load_snapshot(path);
  EXPECT_EQ(loaded.system.tick, original.system.tick);
  EXPECT_EQ(loaded.system.md.profile_samples,
            original.system.md.profile_samples);
  // Atomic write: no temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(SnapshotTest, MissingFileSaysCannotOpen) {
  try {
    load_snapshot(temp_path("fadewich_no_such_snapshot.fdws"));
    FAIL() << "expected fadewich::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

}  // namespace
}  // namespace fadewich::persist
