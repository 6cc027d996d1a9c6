#include "resilience/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>

#include "store/snapshot.h"

namespace ga::resilience {

namespace {

std::uint64_t AlignUp(std::uint64_t offset) {
  return (offset + kCheckpointAlignment - 1) &
         ~(kCheckpointAlignment - 1);
}

}  // namespace

void StateWriter::AddBytes(const std::string& name, const void* data,
                           std::size_t size) {
  Section section;
  section.name = name;
  section.bytes.resize(size);
  if (size > 0) std::memcpy(section.bytes.data(), data, size);
  sections_.push_back(std::move(section));
}

Status WriteCheckpoint(const std::string& path, std::uint64_t job_key,
                       std::int64_t superstep, const StateWriter& state) {
  const auto& sections = state.sections();

  CheckpointHeader header{};
  std::memcpy(header.magic, kCheckpointMagic, sizeof(header.magic));
  header.version = kCheckpointVersion;
  header.endian_tag = store::kEndianTag;
  header.section_count = static_cast<std::uint32_t>(sections.size());
  header.job_key = job_key;
  header.superstep = superstep;

  std::string names;
  std::vector<CheckpointSectionEntry> table(sections.size());
  for (std::size_t i = 0; i < sections.size(); ++i) {
    table[i].name_offset = static_cast<std::uint32_t>(names.size());
    table[i].name_bytes =
        static_cast<std::uint32_t>(sections[i].name.size());
    names += sections[i].name;
  }
  header.name_blob_bytes = names.size();

  std::uint64_t offset = sizeof(CheckpointHeader) +
                         table.size() * sizeof(CheckpointSectionEntry) +
                         names.size();
  for (std::size_t i = 0; i < sections.size(); ++i) {
    offset = AlignUp(offset);
    table[i].payload_offset = offset;
    table[i].payload_bytes = sections[i].bytes.size();
    table[i].checksum = store::Fnv1a64(sections[i].bytes.data(),
                                       sections[i].bytes.size());
    offset += table[i].payload_bytes;
  }

  // Header checksum: header with the field zeroed, then table, then names.
  std::uint64_t checksum = store::Fnv1a64(&header, sizeof(header));
  checksum = store::Fnv1a64(table.data(),
                            table.size() * sizeof(CheckpointSectionEntry),
                            checksum);
  checksum = store::Fnv1a64(names.data(), names.size(), checksum);
  header.header_checksum = checksum;

  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  const auto write_bytes = [&](const void* data,
                               std::size_t size) -> bool {
    return size == 0 || std::fwrite(data, 1, size, out) == size;
  };
  bool ok = write_bytes(&header, sizeof(header)) &&
            write_bytes(table.data(),
                        table.size() * sizeof(CheckpointSectionEntry)) &&
            write_bytes(names.data(), names.size());
  std::uint64_t written = sizeof(header) +
                          table.size() * sizeof(CheckpointSectionEntry) +
                          names.size();
  static constexpr char kPadding[kCheckpointAlignment] = {};
  for (std::size_t i = 0; ok && i < sections.size(); ++i) {
    const std::uint64_t pad = table[i].payload_offset - written;
    ok = write_bytes(kPadding, static_cast<std::size_t>(pad)) &&
         write_bytes(sections[i].bytes.data(), sections[i].bytes.size());
    written = table[i].payload_offset + table[i].payload_bytes;
  }
  if (std::fclose(out) != 0) ok = false;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot write checkpoint " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " -> " + path + ": " +
                           std::strerror(err));
  }
  return Status::Ok();
}

bool CheckpointExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Result<StateReader> StateReader::Open(const std::string& path,
                                      std::uint64_t job_key) {
  if (!CheckpointExists(path)) {
    return Status::NotFound("no checkpoint at " + path);
  }
  GA_ASSIGN_OR_RETURN(store::MappedFile file, store::MappedFile::Open(path));
  if (file.size() < sizeof(CheckpointHeader)) {
    return Status::IoError("checkpoint " + path + " truncated (" +
                           std::to_string(file.size()) + " bytes)");
  }
  CheckpointHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  if (std::memcmp(header.magic, kCheckpointMagic,
                  sizeof(header.magic)) != 0) {
    return Status::IoError("checkpoint " + path + ": bad magic");
  }
  if (header.endian_tag != store::kEndianTag) {
    return Status::IoError("checkpoint " + path +
                           ": foreign-endian file");
  }
  if (header.version != kCheckpointVersion) {
    return Status::IoError("checkpoint " + path + ": version " +
                           std::to_string(header.version) +
                           " unsupported");
  }
  if (header.job_key != job_key) {
    return Status::FailedPrecondition(
        "checkpoint " + path +
        " belongs to a different job (key mismatch); refusing to "
        "restore");
  }
  const std::uint64_t table_bytes =
      std::uint64_t{header.section_count} * sizeof(CheckpointSectionEntry);
  const std::uint64_t meta_end =
      sizeof(CheckpointHeader) + table_bytes + header.name_blob_bytes;
  if (meta_end > file.size()) {
    return Status::IoError("checkpoint " + path +
                           ": section table past end of file");
  }

  CheckpointHeader zeroed = header;
  zeroed.header_checksum = 0;
  std::uint64_t checksum = store::Fnv1a64(&zeroed, sizeof(zeroed));
  checksum = store::Fnv1a64(file.data() + sizeof(CheckpointHeader),
                            table_bytes + header.name_blob_bytes, checksum);
  if (checksum != header.header_checksum) {
    return Status::IoError("checkpoint " + path +
                           ": header checksum mismatch");
  }

  StateReader reader;
  reader.superstep_ = header.superstep;
  const char* names = reinterpret_cast<const char*>(
      file.data() + sizeof(CheckpointHeader) + table_bytes);
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    CheckpointSectionEntry entry;
    std::memcpy(&entry,
                file.data() + sizeof(CheckpointHeader) +
                    i * sizeof(CheckpointSectionEntry),
                sizeof(entry));
    if (entry.name_offset + std::uint64_t{entry.name_bytes} >
        header.name_blob_bytes) {
      return Status::IoError("checkpoint " + path +
                             ": section name past name blob");
    }
    std::string name(names + entry.name_offset, entry.name_bytes);
    if (entry.payload_offset + entry.payload_bytes > file.size() ||
        entry.payload_offset < meta_end) {
      return Status::IoError("checkpoint " + path + ": section " + name +
                             " out of bounds");
    }
    const std::byte* payload = file.data() + entry.payload_offset;
    if (store::Fnv1a64(payload, entry.payload_bytes) != entry.checksum) {
      return Status::IoError("checkpoint " + path + ": section " + name +
                             " checksum mismatch");
    }
    if (!reader.sections_
             .emplace(std::move(name),
                      std::span<const std::byte>(payload,
                                                 entry.payload_bytes))
             .second) {
      return Status::IoError("checkpoint " + path +
                             ": duplicate section name");
    }
  }
  reader.file_ = std::move(file);
  return reader;
}

Result<std::span<const std::byte>> StateReader::Bytes(
    const std::string& name) const {
  const auto it = sections_.find(name);
  if (it == sections_.end()) {
    return Status::NotFound("checkpoint has no section " + name);
  }
  return it->second;
}

std::uint64_t MakeJobKey(const std::string& platform_id,
                         const std::string& algorithm,
                         std::int64_t num_vertices, std::int64_t num_edges,
                         int num_machines, int threads_per_machine) {
  std::string blob = platform_id + '\0' + algorithm + '\0';
  const auto append = [&blob](std::int64_t value) {
    blob.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  append(num_vertices);
  append(num_edges);
  append(num_machines);
  append(threads_per_machine);
  return store::Fnv1a64(blob.data(), blob.size());
}

}  // namespace ga::resilience
