#ifndef DAREC_CKPT_CHECKPOINT_H_
#define DAREC_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/statusor.h"

namespace darec::ckpt {

/// A named-section container — the unit a CheckpointManager commits.
///
/// Producers (the trainer) serialize each component (params, optimizer,
/// rng, ...) into its own section with ckpt::ByteWriter; consumers fetch
/// sections by name and parse with ckpt::ByteReader. Sections are opaque
/// bytes here so the bundle format is independent of what is checkpointed.
struct Bundle {
  std::map<std::string, std::string> sections;

  bool Has(const std::string& name) const { return sections.count(name) > 0; }
  void Put(const std::string& name, std::string payload) {
    sections[name] = std::move(payload);
  }
  /// NotFound if the section is absent (e.g. a bundle from an older writer).
  core::StatusOr<std::string_view> Get(const std::string& name) const;
};

/// On-disk bundle layout (all integers host-endian):
///   magic "DCKP" | u32 format version | u32 file CRC | u32 section count
///   per section: u32 name length | name | u64 payload size | u32 payload CRC
///                | payload
/// The file CRC covers every byte after its own field, so any single
/// bit-flip anywhere in the file is detected; per-section CRCs localize the
/// damage for diagnostics.
std::string SerializeBundle(const Bundle& bundle);

/// Parses and fully validates a serialized bundle. Typed failures:
///   InvalidArgument     — bad magic, truncation, duplicate section,
///                         implausible length field
///   FailedPrecondition  — unsupported format version (version skew)
///   Internal            — file or section CRC mismatch (corruption)
/// Never aborts and never returns a partially validated bundle.
core::StatusOr<Bundle> ParseBundle(std::string_view data);

struct CheckpointManagerOptions {
  /// Directory the checkpoints live in (created on first Save).
  std::string dir;
  /// File names are "<prefix>-<step, zero-padded>.dckp" (single-file
  /// layout) or ".dckm" + a ".dckd/" section directory (sharded layout).
  std::string prefix = "ckpt";
  /// Rotation: after a successful Save, only the newest `keep_last`
  /// checkpoints are kept (values < 1 are clamped to 1).
  int64_t keep_last = 3;
  /// Sharded layout (opt-in): Save writes each bundle section to its own
  /// file "<prefix>-<step>.dckd/<name>.sec" — in parallel on the global
  /// thread pool — and commits by atomically publishing the manifest
  /// "<prefix>-<step>.dckm" last. Every guarantee of the single-file
  /// layout carries over: any single bit-flip in any section or the
  /// manifest is detected on load, a crash at any byte leaves the previous
  /// checkpoint restorable, and the written bytes are identical at every
  /// thread count. Load/List/rotation understand both layouts regardless
  /// of this flag.
  bool sharded = false;
};

/// On-disk sharded layout:
///   manifest "<prefix>-<step>.dckm":
///     magic "DCKM" | u32 format version | u32 manifest CRC
///     u32 section count
///     per section: string name | string filename | u64 size | u32 CRC
///   section payloads: "<prefix>-<step>.dckd/<name>.sec" — raw bytes,
///     exactly the section payload (its CRC lives in the manifest).
/// The manifest CRC covers every byte after its own field; section files
/// are validated against their manifest size + CRC on load, so corruption
/// anywhere in the checkpoint is detected and localized to a section.

/// One checkpoint on disk (single-file .dckp or sharded .dckm manifest).
struct CheckpointEntry {
  int64_t step = 0;
  std::string path;
  bool sharded = false;
};

/// Commits and restores versioned checkpoint bundles in a directory.
///
/// Save serializes the bundle and publishes it with write-to-temp +
/// rename (core::WriteFileAtomic), so a crash at any byte leaves either the
/// previous checkpoint or the complete new one. LoadLatest scans newest to
/// oldest and skips damaged files with a logged warning, so the newest
/// *valid* checkpoint is always restored — a torn or bit-flipped file is
/// a fallback, never a crash or silent garbage.
///
/// Rotation never waits on the disk. Freeing a written file's blocks can
/// take far longer than writing it (DESIGN.md §8), and the filesystem frees
/// them at the last close of an unlinked file, not at the unlink while a
/// descriptor holds it open. So once the new checkpoint is durable, Save
/// opens and unlinks each superseded file — a sharded checkpoint's manifest
/// (its commit point) first, then its section files and directory — and
/// hands the descriptors to the manager's own background thread, which
/// closes them in order. When Save returns, the names are gone. A crash
/// leaves either the old checkpoint under its own name, which the next
/// Save's rotation retires, or an unlinked inode, which the kernel frees
/// when the process exits (the filesystem's orphan recovery, after a power
/// loss). The destructor closes every descriptor still queued.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointManagerOptions options);
  ~CheckpointManager();
  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Serializes `bundle` as step `step` (atomically) and retires old
  /// checkpoints: when it returns, List shows only the newest `keep_last`.
  core::Status Save(int64_t step, const Bundle& bundle);

  struct Loaded {
    int64_t step = 0;
    std::string path;
    Bundle bundle;
  };
  /// Restores the newest valid checkpoint; NotFound when none exists (or
  /// every candidate is damaged).
  core::StatusOr<Loaded> LoadLatest() const;

  /// Parses + validates one checkpoint (single-file or, when `path` ends in
  /// ".dckm", sharded; see ParseBundle for codes).
  core::StatusOr<Bundle> LoadPath(const std::string& path) const;

  /// Checkpoints present in the directory (both layouts), ascending by step.
  std::vector<CheckpointEntry> List() const;

  /// The commit path for `step` under the configured layout: the bundle
  /// file (single-file mode) or the manifest (sharded mode).
  std::string PathForStep(int64_t step) const;
  const CheckpointManagerOptions& options() const { return options_; }

 private:
  class Retirer;

  core::Status SaveSharded(const std::string& manifest_path,
                           const Bundle& bundle) const;
  core::StatusOr<Bundle> LoadSharded(const std::string& manifest_path) const;

  CheckpointManagerOptions options_;
  std::unique_ptr<Retirer> retirer_;
};

}  // namespace darec::ckpt

#endif  // DAREC_CKPT_CHECKPOINT_H_
