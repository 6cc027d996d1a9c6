// ga::resilience — superstep checkpoint/restart (DESIGN.md §13).
//
// A checkpoint captures everything a BSP job needs to resume at a
// superstep boundary: the JobContext's simulated clock, superstep count,
// WorkLedger and memory-accountant state, plus the engine's own vertex
// values, frontier and pending mail. Restarting from a checkpoint
// produces outputs, ledgers and simulated metrics BYTE-IDENTICAL to the
// uninterrupted run at any `--jobs` value, because
//   (a) doubles are stored as raw bit patterns (bit-exact restore), and
//   (b) everything accumulated after the boundary is computed in the
//       same slot order as an uninterrupted run (DESIGN.md §6).
//
// File format (`.gackpt`, sibling of the `.gab` snapshot layout):
//
//   [0,  64)  CheckpointHeader  magic "GACKPT01", version, endian tag,
//                               job key, superstep, header checksum
//   [64, ..)  section table     one 32-byte SectionEntry per section
//   ...       name blob         section names, back to back
//   ...       payloads          raw little-endian bytes, each offset
//                               64-byte aligned, zero padding between
//
// Sections are NAMED (engine state is heterogeneous across engines and
// algorithms, unlike the fixed snapshot schema); every payload carries an
// FNV-1a 64 checksum and the header checksum covers header + table +
// names. Files are written atomically (tmp + rename), so a crash mid-
// write — including the injected SIGKILL of ga::faults — never leaves a
// checkpoint that parses.
#ifndef GRAPHALYTICS_RESILIENCE_CHECKPOINT_H_
#define GRAPHALYTICS_RESILIENCE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/status.h"
#include "store/mapped_file.h"

namespace ga::resilience {

inline constexpr char kCheckpointMagic[8] = {'G', 'A', 'C', 'K',
                                             'P', 'T', '0', '1'};
inline constexpr std::uint32_t kCheckpointVersion = 1;
inline constexpr std::uint64_t kCheckpointAlignment = 64;

struct CheckpointHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint32_t section_count;
  std::uint32_t reserved0;
  std::uint64_t job_key;    // binds a file to one (platform, algo, graph,
                            // env) — a stale file from another job never
                            // restores silently
  std::int64_t superstep;   // boundary the state was captured at
  std::uint64_t name_blob_bytes;
  std::uint64_t reserved1;
  std::uint64_t header_checksum;  // FNV over header (field zeroed) +
                                  // section table + name blob
};
static_assert(sizeof(CheckpointHeader) == 64);

struct CheckpointSectionEntry {
  std::uint32_t name_offset;  // into the name blob
  std::uint32_t name_bytes;
  std::uint64_t payload_offset;  // from file start; 64-byte aligned
  std::uint64_t payload_bytes;
  std::uint64_t checksum;  // FNV-1a 64 over the payload
};
static_assert(sizeof(CheckpointSectionEntry) == 32);

/// How a job checkpoints and whether it resumes. Carried on the
/// ExecutionEnvironment; the harness fills it from --checkpoint-dir /
/// --checkpoint-cadence / --resume.
struct CheckpointPlan {
  /// Checkpoint file path. Empty disables checkpointing entirely.
  std::string path;
  /// Checkpoint every `cadence` supersteps (at the boundary AFTER
  /// supersteps 1*cadence, 2*cadence, ...). <= 0 disables writes.
  int cadence = 0;
  /// Restore from `path` before the first superstep when the file exists
  /// (a missing file means a fresh run, not an error).
  bool resume = false;

  bool writes_enabled() const { return !path.empty() && cadence > 0; }
  bool resume_enabled() const { return !path.empty() && resume; }
};

/// Collects named state sections for one checkpoint. Engines add their
/// vertex arrays / frontier / mail; the JobContext adds its clock and
/// ledger. Names must be unique per checkpoint.
class StateWriter {
 public:
  struct Section {
    std::string name;
    std::vector<std::byte> bytes;
  };

  void AddBytes(const std::string& name, const void* data,
                std::size_t size);

  template <typename T>
  void AddScalar(const std::string& name, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddBytes(name, &value, sizeof(T));
  }

  template <typename T>
  void AddVector(const std::string& name, const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddBytes(name, values.data(), values.size() * sizeof(T));
  }

  template <typename T>
  void AddSpan(const std::string& name, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddBytes(name, values.data(), values.size() * sizeof(T));
  }

  const std::vector<Section>& sections() const { return sections_; }

 private:
  std::vector<Section> sections_;
};

/// Read side: maps a checkpoint file, verifies magic/version/endianness,
/// the job key, the header checksum and EVERY section checksum up front
/// (checkpoints are small next to snapshots), then serves sections by
/// name as spans into the mapping.
class StateReader {
 public:
  /// kNotFound when the file does not exist; kFailedPrecondition on a
  /// job-key mismatch; kIoError on corruption.
  static Result<StateReader> Open(const std::string& path,
                                  std::uint64_t job_key);

  /// The superstep boundary this checkpoint was captured at.
  std::int64_t superstep() const { return superstep_; }

  bool Has(const std::string& name) const {
    return sections_.count(name) != 0;
  }

  /// kNotFound when the checkpoint has no section `name`.
  Result<std::span<const std::byte>> Bytes(const std::string& name) const;

  template <typename T>
  Status ReadScalar(const std::string& name, T* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    GA_ASSIGN_OR_RETURN(std::span<const std::byte> bytes, Bytes(name));
    if (bytes.size() != sizeof(T)) {
      return Status::IoError("checkpoint section " + name + " holds " +
                             std::to_string(bytes.size()) +
                             " bytes, expected " +
                             std::to_string(sizeof(T)));
    }
    std::memcpy(out, bytes.data(), sizeof(T));
    return Status::Ok();
  }

  template <typename T>
  Status ReadVector(const std::string& name, std::vector<T>* out) const {
    static_assert(std::is_trivially_copyable_v<T>);
    GA_ASSIGN_OR_RETURN(std::span<const std::byte> bytes, Bytes(name));
    if (bytes.size() % sizeof(T) != 0) {
      return Status::IoError("checkpoint section " + name + " holds " +
                             std::to_string(bytes.size()) +
                             " bytes, not a multiple of " +
                             std::to_string(sizeof(T)));
    }
    out->resize(bytes.size() / sizeof(T));
    std::memcpy(out->data(), bytes.data(), bytes.size());
    return Status::Ok();
  }

  template <typename T>
  Result<std::span<const T>> Span(const std::string& name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    GA_ASSIGN_OR_RETURN(std::span<const std::byte> bytes, Bytes(name));
    if (bytes.size() % sizeof(T) != 0) {
      return Status::IoError("checkpoint section " + name + " holds " +
                             std::to_string(bytes.size()) +
                             " bytes, not a multiple of " +
                             std::to_string(sizeof(T)));
    }
    return std::span<const T>(
        reinterpret_cast<const T*>(bytes.data()),
        bytes.size() / sizeof(T));
  }

 private:
  store::MappedFile file_;
  std::map<std::string, std::span<const std::byte>> sections_;
  std::int64_t superstep_ = 0;
};

/// Writes the collected sections as a checkpoint file at `path`,
/// atomically (tmp in the same directory, then rename).
Status WriteCheckpoint(const std::string& path, std::uint64_t job_key,
                       std::int64_t superstep, const StateWriter& state);

/// Whether `path` exists (resume probes; not a validity check — Open
/// still verifies everything).
bool CheckpointExists(const std::string& path);

/// Stable job key binding a checkpoint to one (platform, algorithm,
/// graph shape, simulated environment): FNV over the identifying fields.
/// Host parallelism is deliberately excluded — a checkpoint taken at
/// --jobs 8 restores at --jobs 1 (outputs are host-invariant).
std::uint64_t MakeJobKey(const std::string& platform_id,
                         const std::string& algorithm,
                         std::int64_t num_vertices, std::int64_t num_edges,
                         int num_machines, int threads_per_machine);

}  // namespace ga::resilience

#endif  // GRAPHALYTICS_RESILIENCE_CHECKPOINT_H_
