#include "ckpt/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <thread>

#include "ckpt/serialize.h"
#include "core/crc32.h"
#include "core/fsio.h"
#include "core/logging.h"
#include "core/thread_pool.h"

namespace darec::ckpt {
namespace {

constexpr char kMagic[4] = {'D', 'C', 'K', 'P'};
constexpr char kManifestMagic[4] = {'D', 'C', 'K', 'M'};
constexpr uint32_t kFormatVersion = 1;
/// Offset of the byte right after the file-CRC field: magic + version + crc.
constexpr size_t kCrcCoverageStart = sizeof(kMagic) + 2 * sizeof(uint32_t);
constexpr int kStepDigits = 12;

bool EndsWith(const std::string& value, std::string_view suffix) {
  return value.size() >= suffix.size() &&
         value.compare(value.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// "<prefix>-<step>.dckm" -> "<prefix>-<step>.dckd" (the section dir).
std::string SectionDirFor(const std::string& manifest_path) {
  return manifest_path.substr(0, manifest_path.size() - 5) + ".dckd";
}

/// Section names double as file names, so reject anything that could
/// escape the section directory or collide with dot files.
bool SafeSectionName(const std::string& name) {
  return !name.empty() && name[0] != '.' &&
         name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos;
}

core::Status SectionError(const std::string& name, const std::string& what) {
  return core::Status::InvalidArgument("section '" + name + "': " + what);
}

}  // namespace

core::StatusOr<std::string_view> Bundle::Get(const std::string& name) const {
  auto it = sections.find(name);
  if (it == sections.end()) {
    return core::Status::NotFound("bundle has no section '" + name + "'");
  }
  return std::string_view(it->second);
}

std::string SerializeBundle(const Bundle& bundle) {
  // One buffer, one pass over each payload: the file CRC runs over the
  // framing fields and folds each payload in through its section CRC, and
  // is patched in at the end.
  ByteWriter out;
  out.PutBytes(std::string_view(kMagic, sizeof(kMagic)));
  out.PutU32(kFormatVersion);
  out.PutU32(0);
  out.PutU32(static_cast<uint32_t>(bundle.sections.size()));
  uint32_t file_crc = 0;
  size_t unsummed = kCrcCoverageStart;  // First content byte not in file_crc.
  for (const auto& [name, payload] : bundle.sections) {
    const uint32_t payload_crc = core::Crc32(payload);
    out.PutU32(static_cast<uint32_t>(name.size()));
    out.PutBytes(name);
    out.PutU64(payload.size());
    out.PutU32(payload_crc);
    file_crc = core::Crc32(std::string_view(out.str()).substr(unsummed), file_crc);
    out.PutBytes(payload);
    file_crc = core::Crc32Combine(file_crc, payload_crc, payload.size());
    unsummed = out.str().size();
  }
  file_crc = core::Crc32(std::string_view(out.str()).substr(unsummed), file_crc);
  std::string bytes = out.Release();
  std::memcpy(bytes.data() + kCrcCoverageStart - sizeof(file_crc), &file_crc,
              sizeof(file_crc));
  return bytes;
}

core::StatusOr<Bundle> ParseBundle(std::string_view data) {
  if (data.size() < kCrcCoverageStart ||
      std::string_view(data.data(), sizeof(kMagic)) !=
          std::string_view(kMagic, sizeof(kMagic))) {
    return core::Status::InvalidArgument("not a DCKP checkpoint");
  }
  ByteReader header(data.substr(sizeof(kMagic)));
  DARE_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  DARE_ASSIGN_OR_RETURN(uint32_t file_crc, header.GetU32());
  if (version != kFormatVersion) {
    return core::Status::FailedPrecondition("unsupported DCKP version " +
                                            std::to_string(version));
  }
  const std::string_view content = data.substr(kCrcCoverageStart);
  if (core::Crc32(content) != file_crc) {
    return core::Status::Internal("checkpoint file checksum mismatch");
  }

  ByteReader reader(content);
  DARE_ASSIGN_OR_RETURN(uint32_t section_count, reader.GetU32());
  Bundle bundle;
  for (uint32_t i = 0; i < section_count; ++i) {
    DARE_ASSIGN_OR_RETURN(uint32_t name_size, reader.GetU32());
    DARE_ASSIGN_OR_RETURN(std::string name, reader.GetBytes(name_size));
    DARE_ASSIGN_OR_RETURN(uint64_t payload_size, reader.GetU64());
    DARE_ASSIGN_OR_RETURN(uint32_t payload_crc, reader.GetU32());
    if (payload_size > reader.remaining()) {
      return core::Status::InvalidArgument("truncated section '" + name + "'");
    }
    DARE_ASSIGN_OR_RETURN(std::string payload, reader.GetBytes(payload_size));
    if (core::Crc32(payload) != payload_crc) {
      return core::Status::Internal("checksum mismatch in section '" + name + "'");
    }
    if (!bundle.sections.emplace(std::move(name), std::move(payload)).second) {
      return core::Status::InvalidArgument("duplicate bundle section");
    }
  }
  DARE_RETURN_IF_ERROR(reader.ExpectEnd());
  return bundle;
}

/// Takes superseded checkpoint paths out of the directory at once and
/// closes the descriptors that keep their inodes alive on one background
/// thread, started by the first Retire, in the order they were queued.
class CheckpointManager::Retirer {
 public:
  Retirer() = default;
  Retirer(const Retirer&) = delete;
  Retirer& operator=(const Retirer&) = delete;

  /// Closes every queued descriptor, then joins the thread.
  ~Retirer() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  /// Unlinks `path` (a file, or a directory after its entries) while
  /// holding it open, and queues the descriptor. A path that cannot be
  /// opened is unlinked all the same, paying the cost here. Failures are
  /// logged, never fatal: the checkpoints that matter are already durable.
  void Retire(const std::string& path) {
    std::error_code ec;
    const bool is_dir =
        std::filesystem::is_directory(std::filesystem::symlink_status(path, ec));
    if (is_dir) {
      std::vector<std::string> children;
      for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
        children.push_back(entry.path().string());
      }
      for (const std::string& child : children) Retire(child);
    }
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if ((is_dir ? ::rmdir(path.c_str()) : ::unlink(path.c_str())) != 0) {
      const int error = errno;
      if (fd >= 0) ::close(fd);  // Still linked: this close frees nothing.
      if (error != ENOENT) {
        DARE_LOG(Warning) << "checkpoint rotation: cannot remove " << path
                          << ": " << std::strerror(error);
      }
      return;
    }
    if (fd >= 0) Hold(fd);
  }

 private:
  void Hold(int fd) {
    if (!thread_.joinable()) {
      try {
        thread_ = std::thread([this] { Run(); });
      } catch (const std::system_error& e) {
        DARE_LOG(Warning) << "checkpoint rotation: no retirer thread ("
                          << e.what() << "), freeing on the caller's thread";
        ::close(fd);
        return;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      fds_.push_back(fd);
    }
    cv_.notify_one();
  }

  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stopping_ || !fds_.empty(); });
      if (fds_.empty()) return;
      const int fd = fds_.front();
      fds_.pop_front();
      lock.unlock();
      ::close(fd);  // The last reference: the inode's blocks are freed here.
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> fds_;
  bool stopping_ = false;
  std::thread thread_;
};

CheckpointManager::CheckpointManager(CheckpointManagerOptions options)
    : options_(std::move(options)), retirer_(std::make_unique<Retirer>()) {
  options_.keep_last = std::max<int64_t>(options_.keep_last, 1);
}

CheckpointManager::~CheckpointManager() = default;

std::string CheckpointManager::PathForStep(int64_t step) const {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "-%0*lld.%s", kStepDigits,
                static_cast<long long>(step),
                options_.sharded ? "dckm" : "dckp");
  return options_.dir + "/" + options_.prefix + suffix;
}

core::Status CheckpointManager::SaveSharded(const std::string& manifest_path,
                                            const Bundle& bundle) const {
  const std::string section_dir = SectionDirFor(manifest_path);
  std::error_code ec;
  std::filesystem::create_directories(section_dir, ec);
  if (ec) {
    return core::Status::Internal("cannot create section dir " + section_dir +
                                  ": " + ec.message());
  }
  struct SectionJob {
    const std::string* name;
    const std::string* payload;
    std::string filename;
  };
  std::vector<SectionJob> jobs;
  jobs.reserve(bundle.sections.size());
  for (const auto& [name, payload] : bundle.sections) {
    if (!SafeSectionName(name)) {
      return SectionError(name, "name is not usable as a file name");
    }
    jobs.push_back({&name, &payload, name + ".sec"});
  }

  // Section payloads go out in parallel; each one is individually atomic
  // (write-temp + rename), and the manifest below is the commit point — a
  // crash before it publishes leaves only an orphaned .dckd directory that
  // the next Save at this step overwrites and rotation eventually removes.
  std::vector<core::Status> statuses(jobs.size());
  core::ParallelFor(0, static_cast<int64_t>(jobs.size()), 1,
                    [&](int64_t lo, int64_t hi) {
                      for (int64_t i = lo; i < hi; ++i) {
                        const SectionJob& job = jobs[static_cast<size_t>(i)];
                        statuses[static_cast<size_t>(i)] =
                            core::WriteFileAtomic(
                                section_dir + "/" + job.filename,
                                *job.payload);
                      }
                    });
  for (const core::Status& status : statuses) {
    DARE_RETURN_IF_ERROR(status);
  }

  ByteWriter content;
  content.PutU32(static_cast<uint32_t>(jobs.size()));
  for (const SectionJob& job : jobs) {
    content.PutString(*job.name);
    content.PutString(job.filename);
    content.PutU64(job.payload->size());
    content.PutU32(core::Crc32(*job.payload));
  }
  ByteWriter manifest;
  manifest.PutBytes(std::string_view(kManifestMagic, sizeof(kManifestMagic)));
  manifest.PutU32(kFormatVersion);
  manifest.PutU32(core::Crc32(content.str()));
  manifest.PutBytes(content.str());
  return core::WriteFileAtomic(manifest_path, manifest.str());
}

core::StatusOr<Bundle> CheckpointManager::LoadSharded(
    const std::string& manifest_path) const {
  DARE_ASSIGN_OR_RETURN(std::string bytes, core::ReadFile(manifest_path));
  if (bytes.size() < kCrcCoverageStart ||
      std::string_view(bytes.data(), sizeof(kManifestMagic)) !=
          std::string_view(kManifestMagic, sizeof(kManifestMagic))) {
    return core::Status::InvalidArgument("not a DCKM checkpoint manifest");
  }
  ByteReader header(std::string_view(bytes).substr(sizeof(kManifestMagic)));
  DARE_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  DARE_ASSIGN_OR_RETURN(uint32_t manifest_crc, header.GetU32());
  if (version != kFormatVersion) {
    return core::Status::FailedPrecondition("unsupported DCKM version " +
                                            std::to_string(version));
  }
  const std::string_view content =
      std::string_view(bytes).substr(kCrcCoverageStart);
  if (core::Crc32(content) != manifest_crc) {
    return core::Status::Internal("checkpoint manifest checksum mismatch");
  }

  ByteReader reader(content);
  DARE_ASSIGN_OR_RETURN(uint32_t section_count, reader.GetU32());
  struct SectionInfo {
    std::string name;
    std::string path;
    uint64_t size = 0;
    uint32_t crc = 0;
  };
  const std::string section_dir = SectionDirFor(manifest_path);
  std::vector<SectionInfo> infos;
  infos.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    SectionInfo info;
    DARE_ASSIGN_OR_RETURN(info.name, reader.GetString());
    std::string filename;
    DARE_ASSIGN_OR_RETURN(filename, reader.GetString());
    DARE_ASSIGN_OR_RETURN(info.size, reader.GetU64());
    DARE_ASSIGN_OR_RETURN(info.crc, reader.GetU32());
    if (!SafeSectionName(info.name)) {
      return SectionError(info.name, "illegal section name");
    }
    if (filename.empty() || filename[0] == '.' ||
        filename.find('/') != std::string::npos ||
        filename.find('\\') != std::string::npos) {
      return SectionError(info.name, "illegal section file name '" + filename +
                                         "'");
    }
    info.path = section_dir + "/" + filename;
    infos.push_back(std::move(info));
  }
  DARE_RETURN_IF_ERROR(reader.ExpectEnd());

  // Sections come back in parallel, each validated against its manifest
  // size and CRC so a bit-flip or truncation anywhere is caught here.
  std::vector<core::Status> statuses(infos.size());
  std::vector<std::string> payloads(infos.size());
  core::ParallelFor(
      0, static_cast<int64_t>(infos.size()), 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const SectionInfo& info = infos[static_cast<size_t>(i)];
          core::StatusOr<std::string> payload = core::ReadFile(info.path);
          if (!payload.ok()) {
            statuses[static_cast<size_t>(i)] = payload.status();
            continue;
          }
          if (payload->size() != info.size) {
            statuses[static_cast<size_t>(i)] = core::Status::Internal(
                "section '" + info.name + "' (" + info.path + "): " +
                std::to_string(payload->size()) +
                " bytes on disk, manifest says " + std::to_string(info.size));
            continue;
          }
          if (core::Crc32(*payload) != info.crc) {
            statuses[static_cast<size_t>(i)] = core::Status::Internal(
                "checksum mismatch in section '" + info.name + "' (" +
                info.path + ")");
            continue;
          }
          payloads[static_cast<size_t>(i)] = *std::move(payload);
        }
      });
  for (const core::Status& status : statuses) {
    DARE_RETURN_IF_ERROR(status);
  }
  Bundle bundle;
  for (size_t i = 0; i < infos.size(); ++i) {
    if (!bundle.sections.emplace(std::move(infos[i].name),
                                 std::move(payloads[i]))
             .second) {
      return core::Status::InvalidArgument("duplicate bundle section");
    }
  }
  return bundle;
}

core::Status CheckpointManager::Save(int64_t step, const Bundle& bundle) {
  if (step < 0) return core::Status::InvalidArgument("negative checkpoint step");
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return core::Status::Internal("cannot create checkpoint dir " + options_.dir +
                                  ": " + ec.message());
  }
  if (options_.sharded) {
    DARE_RETURN_IF_ERROR(SaveSharded(PathForStep(step), bundle));
  } else {
    DARE_RETURN_IF_ERROR(
        core::WriteFileAtomic(PathForStep(step), SerializeBundle(bundle)));
  }

  // Rotation, now that the new checkpoint is durable: retire everything but
  // the newest keep_last checkpoints. A sharded one loses its manifest first;
  // without it the section directory is dead weight.
  std::vector<CheckpointEntry> entries = List();
  const int64_t excess = static_cast<int64_t>(entries.size()) - options_.keep_last;
  for (int64_t i = 0; i < excess; ++i) {
    const CheckpointEntry& entry = entries[static_cast<size_t>(i)];
    retirer_->Retire(entry.path);
    if (entry.sharded) retirer_->Retire(SectionDirFor(entry.path));
  }
  return core::Status::Ok();
}

std::vector<CheckpointEntry> CheckpointManager::List() const {
  std::vector<CheckpointEntry> entries;
  std::error_code ec;
  std::filesystem::directory_iterator it(options_.dir, ec);
  if (ec) return entries;
  const std::string name_prefix = options_.prefix + "-";
  for (const auto& dir_entry : it) {
    if (!dir_entry.is_regular_file(ec) || ec) continue;
    const std::string name = dir_entry.path().filename().string();
    if (name.size() != name_prefix.size() + kStepDigits + 5 ||
        name.compare(0, name_prefix.size(), name_prefix) != 0) {
      continue;
    }
    const bool sharded = EndsWith(name, ".dckm");
    if (!sharded && !EndsWith(name, ".dckp")) continue;
    const std::string digits = name.substr(name_prefix.size(), kStepDigits);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    entries.push_back({std::stoll(digits), dir_entry.path().string(), sharded});
  }
  std::sort(entries.begin(), entries.end(),
            [](const CheckpointEntry& a, const CheckpointEntry& b) {
              return a.step != b.step ? a.step < b.step : a.path < b.path;
            });
  return entries;
}

core::StatusOr<Bundle> CheckpointManager::LoadPath(const std::string& path) const {
  if (EndsWith(path, ".dckm")) return LoadSharded(path);
  DARE_ASSIGN_OR_RETURN(std::string contents, core::ReadFile(path));
  return ParseBundle(contents);
}

core::StatusOr<CheckpointManager::Loaded> CheckpointManager::LoadLatest() const {
  std::vector<CheckpointEntry> entries = List();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    core::StatusOr<Bundle> bundle = LoadPath(it->path);
    if (bundle.ok()) {
      return Loaded{it->step, it->path, *std::move(bundle)};
    }
    DARE_LOG(Warning) << "skipping damaged checkpoint " << it->path << ": "
                      << bundle.status().ToString();
  }
  return core::Status::NotFound("no valid checkpoint under " + options_.dir);
}

}  // namespace darec::ckpt
