#include "ckpt/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "ckpt/serialize.h"
#include "core/failpoint.h"
#include "core/fsio.h"
#include "core/rng.h"
#include "gtest/gtest.h"
#include "tensor/init.h"
#include "tensor/matrix.h"

namespace darec::ckpt {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ckpt_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    core::FailPoint::DisarmAll();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

Bundle MakeTestBundle() {
  Bundle bundle;
  ByteWriter meta;
  meta.PutU32(7);
  meta.PutString("lightgcn");
  bundle.Put("meta", meta.Release());

  core::Rng rng(3);
  ByteWriter params;
  params.PutMatrix(tensor::RandomNormal(6, 4, 1.0f, rng));
  bundle.Put("params", params.Release());

  ByteWriter history;
  history.PutF64Vector({0.5, 0.25, 0.125});
  bundle.Put("history", history.Release());
  return bundle;
}

TEST(SerializeTest, WriterReaderRoundTrip) {
  ByteWriter w;
  w.PutU8(200);
  w.PutU32(0xdeadbeef);
  w.PutU64(uint64_t{1} << 60);
  w.PutI64(-17);
  w.PutF32(1.5f);
  w.PutF64(-2.25);
  w.PutString("hello");
  core::Rng rng(1);
  tensor::Matrix m = tensor::RandomNormal(3, 5, 1.0f, rng);
  w.PutMatrix(m);
  w.PutI64Vector({1, 2, 3});
  w.PutF64Vector({0.5, 0.75});

  ByteReader r(w.str());
  EXPECT_EQ(r.GetU8().value(), 200);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeef);
  EXPECT_EQ(r.GetU64().value(), uint64_t{1} << 60);
  EXPECT_EQ(r.GetI64().value(), -17);
  EXPECT_EQ(r.GetF32().value(), 1.5f);
  EXPECT_EQ(r.GetF64().value(), -2.25);
  EXPECT_EQ(r.GetString().value(), "hello");
  tensor::Matrix back = r.GetMatrix().value();
  ASSERT_TRUE(back.SameShape(m));
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_EQ(back.data()[i], m.data()[i]);
  EXPECT_EQ(r.GetI64Vector().value(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(r.GetF64Vector().value(), (std::vector<double>{0.5, 0.75}));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

/// A step-0 checkpoint carries an empty loss history; empty containers
/// hand the writer and reader null data pointers, which must never reach
/// memcpy (undefined behaviour even for zero bytes; the UBSan lane traps).
TEST(SerializeTest, EmptyContainersRoundTrip) {
  ByteWriter w;
  w.PutF64Vector({});
  w.PutI64Vector({});
  w.PutMatrix(tensor::Matrix());
  w.PutMatrix(tensor::Matrix(0, 7));
  w.PutU32(42);

  ByteReader r(w.str());
  EXPECT_TRUE(r.GetF64Vector().value().empty());
  EXPECT_TRUE(r.GetI64Vector().value().empty());
  const tensor::Matrix empty = r.GetMatrix().value();
  EXPECT_EQ(empty.rows(), 0);
  EXPECT_EQ(empty.cols(), 0);
  const tensor::Matrix no_rows = r.GetMatrix().value();
  EXPECT_EQ(no_rows.rows(), 0);
  EXPECT_EQ(no_rows.cols(), 7);
  EXPECT_EQ(r.GetU32().value(), 42u);
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerializeTest, TruncatedReadsAreTyped) {
  ByteWriter w;
  w.PutU32(5);
  ByteReader r(w.str());
  EXPECT_TRUE(r.GetU32().ok());
  EXPECT_EQ(r.GetU64().status().code(), core::StatusCode::kInvalidArgument);
}

TEST(SerializeTest, ImplausibleContainerSizesRejectedWithoutAllocation) {
  // A corrupted length field claiming 2^60 elements must be rejected by the
  // remaining-bytes plausibility check, not attempted as an allocation.
  ByteWriter w;
  w.PutU64(uint64_t{1} << 60);
  {
    ByteReader r(w.str());
    EXPECT_EQ(r.GetI64Vector().status().code(), core::StatusCode::kInvalidArgument);
  }
  ByteWriter m;
  m.PutI64(int64_t{1} << 40);
  m.PutI64(int64_t{1} << 40);
  {
    ByteReader r(m.str());
    EXPECT_EQ(r.GetMatrix().status().code(), core::StatusCode::kInvalidArgument);
  }
}

TEST(SerializeTest, ExpectEndCatchesTrailingBytes) {
  ByteWriter w;
  w.PutU32(5);
  w.PutU32(6);
  ByteReader r(w.str());
  ASSERT_TRUE(r.GetU32().ok());
  EXPECT_EQ(r.ExpectEnd().code(), core::StatusCode::kInvalidArgument);
}

TEST(BundleTest, RoundTripPreservesSections) {
  Bundle original = MakeTestBundle();
  const std::string serialized = SerializeBundle(original);
  auto parsed = ParseBundle(serialized);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sections, original.sections);
}

TEST(BundleTest, EmptyBundleRoundTrips) {
  auto parsed = ParseBundle(SerializeBundle(Bundle{}));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->sections.empty());
}

TEST(BundleTest, MissingSectionIsNotFound) {
  Bundle bundle = MakeTestBundle();
  EXPECT_EQ(bundle.Get("nope").status().code(), core::StatusCode::kNotFound);
}

TEST(BundleTest, BadMagicRejected) {
  std::string serialized = SerializeBundle(MakeTestBundle());
  serialized[0] = 'X';
  EXPECT_EQ(ParseBundle(serialized).status().code(),
            core::StatusCode::kInvalidArgument);
}

TEST(BundleTest, VersionSkewIsFailedPrecondition) {
  std::string serialized = SerializeBundle(MakeTestBundle());
  const uint32_t bad_version = 99;
  serialized.replace(4, sizeof(bad_version),
                     reinterpret_cast<const char*>(&bad_version),
                     sizeof(bad_version));
  EXPECT_EQ(ParseBundle(serialized).status().code(),
            core::StatusCode::kFailedPrecondition);
}

TEST(BundleTest, EveryTruncationPrefixRejected) {
  const std::string serialized = SerializeBundle(MakeTestBundle());
  for (size_t len = 0; len < serialized.size(); ++len) {
    auto parsed = ParseBundle(std::string_view(serialized.data(), len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(BundleTest, EverySingleBitFlipDetected) {
  // The file-level CRC covers all bytes after its own field; flips inside
  // the magic/version/CRC fields fail their own checks. No flip anywhere in
  // the file may parse cleanly.
  const std::string serialized = SerializeBundle(MakeTestBundle());
  for (size_t byte = 0; byte < serialized.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = serialized;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      auto parsed = ParseBundle(flipped);
      EXPECT_FALSE(parsed.ok())
          << "flip of bit " << bit << " in byte " << byte << " went undetected";
    }
  }
}

TEST_F(CheckpointTest, SaveLoadLatestRoundTrip) {
  CheckpointManagerOptions options;
  options.dir = dir_;
  CheckpointManager manager(options);
  EXPECT_EQ(manager.LoadLatest().status().code(), core::StatusCode::kNotFound);

  Bundle bundle = MakeTestBundle();
  ASSERT_TRUE(manager.Save(3, bundle).ok());
  auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 3);
  EXPECT_EQ(loaded->bundle.sections, bundle.sections);
  EXPECT_EQ(loaded->path, manager.PathForStep(3));
}

TEST_F(CheckpointTest, ListAscendsAndRotationKeepsNewest) {
  CheckpointManagerOptions options;
  options.dir = dir_;
  options.keep_last = 2;
  CheckpointManager manager(options);
  const Bundle bundle = MakeTestBundle();
  for (int64_t step : {1, 5, 3, 9}) {
    ASSERT_TRUE(manager.Save(step, bundle).ok());
  }
  std::vector<CheckpointEntry> entries = manager.List();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].step, 5);
  EXPECT_EQ(entries[1].step, 9);
  EXPECT_FALSE(fs::exists(manager.PathForStep(1)));
  EXPECT_FALSE(fs::exists(manager.PathForStep(3)));
}

TEST_F(CheckpointTest, ForeignFilesInDirectoryAreIgnored) {
  CheckpointManagerOptions options;
  options.dir = dir_;
  CheckpointManager manager(options);
  ASSERT_TRUE(manager.Save(1, MakeTestBundle()).ok());
  std::ofstream(dir_ + "/notes.txt") << "not a checkpoint";
  std::ofstream(dir_ + "/ckpt-garbage.dckp") << "bad step";
  std::vector<CheckpointEntry> entries = manager.List();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].step, 1);
}

TEST_F(CheckpointTest, LoadLatestFallsBackPastCorruptNewest) {
  CheckpointManagerOptions options;
  options.dir = dir_;
  CheckpointManager manager(options);
  Bundle bundle = MakeTestBundle();
  ASSERT_TRUE(manager.Save(1, bundle).ok());
  ASSERT_TRUE(manager.Save(2, bundle).ok());
  // Flip one payload byte in the newest file.
  {
    std::fstream f(manager.PathForStep(2),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\xff');
  }
  auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 1);

  EXPECT_EQ(manager.LoadPath(manager.PathForStep(2)).status().code(),
            core::StatusCode::kInternal);
}

TEST_F(CheckpointTest, CrashMidWriteLeavesPreviousCheckpointIntact) {
  CheckpointManagerOptions options;
  options.dir = dir_;
  CheckpointManager manager(options);
  Bundle bundle = MakeTestBundle();
  ASSERT_TRUE(manager.Save(1, bundle).ok());

  // Kill the write after 10 bytes: Save must fail, the torn temp file must
  // never be published, and step 1 must stay restorable.
  core::FailPoint::Arm("fsio.write_abort", /*arg=*/10, /*fires=*/1);
  EXPECT_EQ(manager.Save(2, bundle).code(), core::StatusCode::kInternal);
  EXPECT_FALSE(fs::exists(manager.PathForStep(2)));
  auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 1);
  EXPECT_EQ(loaded->bundle.sections, bundle.sections);
}

TEST_F(CheckpointTest, CrashBeforeRenameLeavesPreviousCheckpointIntact) {
  CheckpointManagerOptions options;
  options.dir = dir_;
  CheckpointManager manager(options);
  Bundle bundle = MakeTestBundle();
  ASSERT_TRUE(manager.Save(1, bundle).ok());

  core::FailPoint::Arm("fsio.rename_fail", /*arg=*/0, /*fires=*/1);
  EXPECT_EQ(manager.Save(2, bundle).code(), core::StatusCode::kInternal);
  EXPECT_FALSE(fs::exists(manager.PathForStep(2)));
  // The fully-written temp is left behind (as a real crash would) but is
  // invisible to List/LoadLatest.
  EXPECT_TRUE(fs::exists(manager.PathForStep(2) + ".tmp"));
  EXPECT_EQ(manager.List().size(), 1u);
  EXPECT_EQ(manager.LoadLatest()->step, 1);
}

TEST_F(CheckpointTest, NegativeStepRejected) {
  CheckpointManagerOptions options;
  options.dir = dir_;
  CheckpointManager manager(options);
  EXPECT_EQ(manager.Save(-1, MakeTestBundle()).code(),
            core::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace darec::ckpt
