#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/serialize.h"
#include "core/crc32.h"
#include "core/failpoint.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/init.h"
#include "test_util.h"

namespace darec::ckpt {
namespace {

namespace fs = std::filesystem;

class ShardedCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/sharded_ckpt_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    core::FailPoint::DisarmAll();
    core::ThreadPool::SetGlobalThreads(core::ThreadPool::DefaultThreads());
    fs::remove_all(dir_);
  }

  CheckpointManager MakeManager(bool sharded, int64_t keep_last = 3) {
    CheckpointManagerOptions options;
    options.dir = dir_;
    options.sharded = sharded;
    options.keep_last = keep_last;
    return CheckpointManager(options);
  }

  std::string dir_;
};

Bundle MakeTestBundle(uint64_t salt = 3) {
  Bundle bundle;
  ByteWriter meta;
  meta.PutU32(7);
  meta.PutString("lightgcn");
  bundle.Put("meta", meta.Release());

  core::Rng rng(salt);
  ByteWriter params;
  params.PutMatrix(tensor::RandomNormal(8, 6, 1.0f, rng));
  bundle.Put("params", params.Release());

  ByteWriter history;
  history.PutF64Vector({0.5, 0.25, 0.125});
  bundle.Put("history", history.Release());

  ByteWriter rng_state;
  rng_state.PutU64(salt * 0x9e3779b97f4a7c15ull);
  bundle.Put("rng", rng_state.Release());
  return bundle;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ShardedCheckpointTest, SaveLoadRoundTrip) {
  CheckpointManager manager = MakeManager(/*sharded=*/true);
  const Bundle bundle = MakeTestBundle();
  ASSERT_TRUE(manager.Save(4, bundle).ok());

  // The layout on disk: one manifest plus one .sec file per section.
  const std::string manifest = manager.PathForStep(4);
  ASSERT_TRUE(manifest.size() > 5 &&
              manifest.compare(manifest.size() - 5, 5, ".dckm") == 0);
  EXPECT_TRUE(fs::exists(manifest));
  const std::string section_dir =
      manifest.substr(0, manifest.size() - 5) + ".dckd";
  for (const auto& [name, payload] : bundle.sections) {
    EXPECT_EQ(ReadAll(section_dir + "/" + name + ".sec"), payload);
  }

  auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 4);
  EXPECT_EQ(loaded->bundle.sections, bundle.sections);
}

TEST_F(ShardedCheckpointTest, WrittenBytesAreThreadCountInvariant) {
  auto digest_save = [&](const std::string& subdir, int threads) {
    core::ThreadPool::SetGlobalThreads(threads);
    CheckpointManagerOptions options;
    options.dir = dir_ + "/" + subdir;
    options.sharded = true;
    CheckpointManager manager(options);
    EXPECT_TRUE(manager.Save(1, MakeTestBundle()).ok());
    std::vector<std::pair<std::string, uint32_t>> digests;
    for (const auto& entry :
         fs::recursive_directory_iterator(options.dir)) {
      if (!entry.is_regular_file()) continue;
      digests.emplace_back(
          fs::relative(entry.path(), options.dir).string(),
          core::Crc32(ReadAll(entry.path().string())));
    }
    std::sort(digests.begin(), digests.end());
    return digests;
  };
  const auto one = digest_save("t1", 1);
  const auto eight = digest_save("t8", 8);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

TEST_F(ShardedCheckpointTest, ListSeesBothLayoutsAndRotationRemovesSectionDirs) {
  // Steps 1 and 2 in the legacy single-file layout, 3 and 4 sharded.
  CheckpointManager legacy = MakeManager(/*sharded=*/false, /*keep_last=*/10);
  const Bundle bundle = MakeTestBundle();
  ASSERT_TRUE(legacy.Save(1, bundle).ok());
  ASSERT_TRUE(legacy.Save(2, bundle).ok());
  CheckpointManager sharded = MakeManager(/*sharded=*/true, /*keep_last=*/10);
  ASSERT_TRUE(sharded.Save(3, bundle).ok());
  ASSERT_TRUE(sharded.Save(4, bundle).ok());

  std::vector<CheckpointEntry> entries = sharded.List();
  ASSERT_EQ(entries.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(entries[i].step, int64_t(i + 1));
  EXPECT_FALSE(entries[0].sharded);
  EXPECT_FALSE(entries[1].sharded);
  EXPECT_TRUE(entries[2].sharded);
  EXPECT_TRUE(entries[3].sharded);

  // Rotation with keep_last=2 drops the .dckp files AND the sharded step-3
  // checkpoint with its whole section directory.
  CheckpointManager tight = MakeManager(/*sharded=*/true, /*keep_last=*/2);
  ASSERT_TRUE(tight.Save(5, bundle).ok());
  entries = tight.List();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].step, 4);
  EXPECT_EQ(entries[1].step, 5);
  const std::string step3 = tight.PathForStep(3);
  EXPECT_FALSE(fs::exists(step3));
  EXPECT_FALSE(fs::exists(step3.substr(0, step3.size() - 5) + ".dckd"));
}

TEST_F(ShardedCheckpointTest, SingleFileCheckpointsStayReadable) {
  // A directory written entirely by an old single-file manager is fully
  // usable by a sharded-configured one: load, list, and resume all work.
  CheckpointManager old_manager = MakeManager(/*sharded=*/false);
  const Bundle bundle = MakeTestBundle();
  ASSERT_TRUE(old_manager.Save(7, bundle).ok());

  CheckpointManager new_manager = MakeManager(/*sharded=*/true);
  auto loaded = new_manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 7);
  EXPECT_EQ(loaded->bundle.sections, bundle.sections);
}

TEST_F(ShardedCheckpointTest, CrashDuringSectionWriteKeepsPreviousCheckpoint) {
  core::ThreadPool::SetGlobalThreads(1);
  CheckpointManager manager = MakeManager(/*sharded=*/true);
  const Bundle bundle = MakeTestBundle();
  ASSERT_TRUE(manager.Save(1, bundle).ok());

  // Kill one section write mid-stream: Save must fail, no manifest for
  // step 2 may appear, and step 1 must stay restorable bit for bit.
  core::FailPoint::Arm("fsio.write_abort", /*arg=*/10, /*fires=*/1);
  EXPECT_EQ(manager.Save(2, bundle).code(), core::StatusCode::kInternal);
  EXPECT_FALSE(fs::exists(manager.PathForStep(2)));
  auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->step, 1);
  EXPECT_EQ(loaded->bundle.sections, bundle.sections);
}

TEST_F(ShardedCheckpointTest, CrashBeforeManifestRenameKeepsPreviousCheckpoint) {
  core::ThreadPool::SetGlobalThreads(1);
  CheckpointManager manager = MakeManager(/*sharded=*/true);
  const Bundle bundle = MakeTestBundle();
  ASSERT_TRUE(manager.Save(1, bundle).ok());

  // Let every section land, then fail the manifest's commit rename (the
  // bundle has 4 sections, so skip their 4 renames first). All section
  // files of step 2 exist, but without a manifest the checkpoint does not:
  // List and LoadLatest still serve step 1.
  core::FailPoint::Arm("fsio.rename_fail", /*arg=*/0, /*fires=*/1,
                       /*skip_hits=*/static_cast<int64_t>(
                           bundle.sections.size()));
  EXPECT_EQ(manager.Save(2, bundle).code(), core::StatusCode::kInternal);
  EXPECT_FALSE(fs::exists(manager.PathForStep(2)));
  const std::string step2 = manager.PathForStep(2);
  EXPECT_TRUE(fs::exists(step2.substr(0, step2.size() - 5) + ".dckd"));
  EXPECT_EQ(manager.List().size(), 1u);
  auto loaded = manager.LoadLatest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->step, 1);
  EXPECT_EQ(loaded->bundle.sections, bundle.sections);
}

TEST_F(ShardedCheckpointTest, EveryManifestBitFlipDetected) {
  CheckpointManager manager = MakeManager(/*sharded=*/true);
  ASSERT_TRUE(manager.Save(1, MakeTestBundle()).ok());
  const std::string manifest = manager.PathForStep(1);
  const std::string pristine = ReadAll(manifest);
  for (size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      const auto mask = static_cast<unsigned char>(1 << bit);
      darec::testing::FlipByteInPlace(manifest, byte, mask);
      EXPECT_FALSE(manager.LoadPath(manifest).ok())
          << "flip of bit " << bit << " in manifest byte " << byte
          << " went undetected";
      darec::testing::FlipByteInPlace(manifest, byte, mask);
    }
  }
}

TEST_F(ShardedCheckpointTest, EverySectionFileBitFlipDetected) {
  CheckpointManager manager = MakeManager(/*sharded=*/true);
  ASSERT_TRUE(manager.Save(1, MakeTestBundle()).ok());
  const std::string manifest = manager.PathForStep(1);
  const std::string section_dir =
      manifest.substr(0, manifest.size() - 5) + ".dckd";
  for (const auto& entry : fs::directory_iterator(section_dir)) {
    const std::string path = entry.path().string();
    const std::string pristine = ReadAll(path);
    for (size_t byte = 0; byte < pristine.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        const auto mask = static_cast<unsigned char>(1 << bit);
        darec::testing::FlipByteInPlace(path, byte, mask);
        EXPECT_FALSE(manager.LoadPath(manifest).ok())
            << "flip of bit " << bit << " in byte " << byte << " of "
            << entry.path().filename() << " went undetected";
        darec::testing::FlipByteInPlace(path, byte, mask);
      }
    }
  }

  // Truncation and a missing section file are caught too.
  const std::string victim =
      fs::directory_iterator(section_dir)->path().string();
  const std::string pristine = ReadAll(victim);
  if (!pristine.empty()) {
    WriteAll(victim, pristine.substr(0, pristine.size() - 1));
    EXPECT_FALSE(manager.LoadPath(manifest).ok());
  }
  fs::remove(victim);
  EXPECT_FALSE(manager.LoadPath(manifest).ok());
}

TEST_F(ShardedCheckpointTest, LoadLatestFallsBackPastDamagedShardedCheckpoint) {
  const Bundle bundle = MakeTestBundle();
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    core::ThreadPool::SetGlobalThreads(threads);
    fs::remove_all(dir_);
    CheckpointManager manager = MakeManager(/*sharded=*/true);
    ASSERT_TRUE(manager.Save(1, bundle).ok());
    ASSERT_TRUE(manager.Save(2, bundle).ok());

    // Corrupt one section of the newest checkpoint; restore must fall back
    // to step 1 and reproduce its sections bit for bit.
    const std::string step2 = manager.PathForStep(2);
    const std::string victim =
        step2.substr(0, step2.size() - 5) + ".dckd/params.sec";
    std::string bytes = ReadAll(victim);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    WriteAll(victim, bytes);

    auto loaded = manager.LoadLatest();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->step, 1);
    EXPECT_EQ(loaded->bundle.sections, bundle.sections);
  }
}

TEST_F(ShardedCheckpointTest, ManifestWithTraversalFilenameRejected) {
  // Hand-craft a manifest whose section file escapes the section directory;
  // the loader must refuse before touching the path.
  fs::create_directories(dir_);
  ByteWriter content;
  content.PutU32(1);
  content.PutString("params");
  content.PutString("../../etc/passwd");
  content.PutU64(0);
  content.PutU32(0);
  ByteWriter manifest;
  manifest.PutBytes("DCKM");
  manifest.PutU32(1);
  manifest.PutU32(core::Crc32(content.str()));
  manifest.PutBytes(content.str());
  const std::string path = dir_ + "/ckpt-000000000001.dckm";
  WriteAll(path, manifest.str());

  CheckpointManager manager = MakeManager(/*sharded=*/true);
  auto loaded = manager.LoadPath(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace darec::ckpt
