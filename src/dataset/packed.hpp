#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"
#include "util/annotations.hpp"
#include "util/crc32.hpp"

namespace qgnn {

/// Packed binary dataset container (DESIGN.md §10): the storage format the
/// dataset factory emits and the trainer/serve loaders consume. One file
/// holds the whole dataset — a fixed header, an index section (one
/// offset/length pair per record), and a records section — so paper-scale
/// datasets load with two CRC sweeps and zero per-graph file opens, and
/// byte-identity across runs can be pinned by hashing a single file.
///
/// Layout (all integers little-endian; doubles are IEEE-754 bit patterns
/// stored little-endian):
///
///   [0,  8)  magic "qgnnpak1"
///   [8, 12)  u32 format version (currently 1)
///   [12,16)  u32 QAOA depth p shared by every record's label
///   [16,24)  u64 record count
///   [24,32)  u64 index section offset (= 72)
///   [32,40)  u64 index section size in bytes
///   [40,48)  u64 records section offset
///   [48,56)  u64 records section size in bytes
///   [56,60)  u32 CRC32 of the index section
///   [60,64)  u32 CRC32 of the records section
///   [64,68)  u32 CRC32 of header bytes [0, 64)
///   [68,72)  u32 reserved (zero)
///
/// Index entry (16 bytes per record): u64 offset relative to the records
/// section start, u64 record size in bytes. Record layout:
///
///   u32 record size (same value as the index entry, for stream skipping)
///   u32 node count
///   u32 regular degree
///   u32 edge count
///   edge count × { u32 u, u32 v, f64 weight }   (u < v, edge order)
///   p × f64 gammas, p × f64 betas
///   f64 expectation, f64 optimum, f64 approximation_ratio
///
/// Every reader validates magic, version, header CRC, section bounds and
/// both section CRCs before returning, and re-checks per-record bounds on
/// access, so truncation, bit flips, and future versions all surface as a
/// descriptive IoError (file name + byte offset) — never as UB.
inline constexpr char kPackedMagic[8] = {'q', 'g', 'n', 'n',
                                         'p', 'a', 'k', '1'};
inline constexpr std::uint32_t kPackedVersion = 1;
inline constexpr std::size_t kPackedHeaderBytes = 72;
inline constexpr std::size_t kPackedIndexEntryBytes = 16;

/// Header fields of an opened packed file, exposed for inspection tools
/// and golden-file tests.
struct PackedDatasetInfo {
  std::uint32_t version = 0;
  int depth = 0;
  std::uint64_t num_records = 0;
  std::uint64_t file_bytes = 0;
  std::uint32_t index_crc32 = 0;
  std::uint32_t records_crc32 = 0;
};

/// Serialize `entries` to the exact byte image save_packed_dataset writes.
/// All labels must share one depth. Deterministic: the bytes depend only
/// on the entries, never on allocator state or platform.
std::vector<std::uint8_t> pack_dataset(
    const std::vector<DatasetEntry>& entries) QGNN_BIT_IDENTICAL_PATH;

/// Write the packed image to `path` atomically (temp file + rename), so a
/// crash mid-write never leaves a half-valid file behind.
void save_packed_dataset(const std::string& path,
                         const std::vector<DatasetEntry>& entries);

/// True when `path` opens and starts with the packed magic. Used by
/// load_dataset to dispatch between packed files and the legacy text
/// layout without consuming the caller's error budget.
bool is_packed_dataset_file(const std::string& path);

/// Validated random-access view of one packed file. kMmap maps the file
/// read-only (zero-copy, the intended production path); kStream reads it
/// into memory through stdio (portability fallback, byte-equivalent by
/// test). Move-only; the mapping lives until destruction.
class PackedDatasetReader {
 public:
  enum class Mode { kMmap, kStream };

  explicit PackedDatasetReader(const std::string& path,
                               Mode mode = Mode::kMmap);
  ~PackedDatasetReader();
  PackedDatasetReader(PackedDatasetReader&&) noexcept;
  PackedDatasetReader& operator=(PackedDatasetReader&&) noexcept;
  PackedDatasetReader(const PackedDatasetReader&) = delete;
  PackedDatasetReader& operator=(const PackedDatasetReader&) = delete;

  const PackedDatasetInfo& info() const;
  std::size_t size() const;
  int depth() const;

  /// Decode record `index`. Throws IoError (with file + offset) when the
  /// record's index entry or body is inconsistent.
  DatasetEntry read(std::size_t index) const;
  std::vector<DatasetEntry> read_all() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Open (mmap), validate, and decode every record of a packed file.
std::vector<DatasetEntry> load_packed_dataset(const std::string& path);

}  // namespace qgnn
