// fne::ResultStore — a persistent content-addressable store for campaign
// cell results (DESIGN.md §11).
//
// The store maps a canonical cell key (store/key.hpp) to the encoded
// result payload (store/record.hpp) through ONE append-only log file,
// `<dir>/cells.log`.  Layout:
//
//   header   "FNESTORE" (8) | u32 schema version | u32 reserved
//   frame*   u32 'FNEC' | u32 key_len | u32 payload_len | u32 format
//            | u64 fnv1a(key ‖ payload) | key bytes | payload bytes
//
// all integers little-endian.  The full key is stored in every frame and
// compared on load, so the in-memory hash index can never serve a
// colliding key's payload — a collision degrades to a miss.
//
// Crash safety: the header is created via write-temp + rename (a crash
// mid-create leaves no half-header file); each append is ONE O_APPEND
// write() of a fully framed record, so a killed process leaves at worst
// a torn tail.  open() truncates a torn tail (frame incomplete, bad
// frame magic, or absurd lengths) and skips — without dropping the rest
// of the file — any framed record whose checksum does not verify.  A
// file with a foreign magic rotates to cells.log.bad and a file with an
// unknown schema version rotates to cells.log.v<N>; both then start
// fresh.  Every degradation path ends in "miss -> recompute", never in
// an exception or a wrong payload.
//
// Concurrency: one ResultStore is internally synchronized (the campaign
// commits from pool threads).  Across processes the contract is one
// writer + many readers, but the append path is defensive enough that
// two concurrent runners on one directory stay consistent: appends are
// single atomic write()s, and put() rescans the tail afterwards so
// records interleaved by the other process enter the index too.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace fne {

/// Bump whenever the record codec (store/record.hpp) or the frame layout
/// changes.  Old logs rotate aside and the campaign recomputes.
inline constexpr std::uint32_t kStoreSchemaVersion = 2;

/// Counters for --store-stats and the robustness tests.  hits/misses and
/// byte counters accumulate over the store's lifetime; corrupt_records /
/// truncated_bytes / rotated_files describe what open()/load() had to
/// discard or move aside.  Every corruption path HEALS silently (miss ->
/// recompute), so these counters are the only place disk trouble shows
/// up — campaign reports surface them in the timing payload.
struct StoreStats {
  std::uint64_t records = 0;          ///< distinct keys currently indexed
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_committed = 0;  ///< payload bytes appended by this store
  std::uint64_t bytes_loaded = 0;     ///< payload bytes served from the log
  std::uint64_t corrupt_records = 0;  ///< checksum/key-verify failures skipped
  std::uint64_t truncated_bytes = 0;  ///< torn tail dropped at open
  std::uint64_t rotated_files = 0;    ///< foreign/versioned logs moved aside at open
};

class ResultStore {
 public:
  /// Open (creating the directory and log as needed) the store at `dir`.
  /// Filesystem errors that cannot be degraded — directory uncreatable,
  /// log unopenable — REQUIRE-fail; corrupt CONTENT never does.
  explicit ResultStore(std::string dir);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

  /// Serve `key`'s payload, or nullopt (counted as a miss).  Verifies the
  /// frame checksum and the stored key on every hit; a record that fails
  /// re-verification is dropped from the index and counted corrupt.
  [[nodiscard]] std::optional<std::string> load(const std::string& key);

  /// Append (key -> payload).  A key already present is NOT rewritten —
  /// first write wins, matching the determinism contract (any two writers
  /// of one key computed the same bytes).
  void put(const std::string& key, const std::string& payload);

  /// Re-scan the log tail for records appended by other processes since
  /// open()/the last refresh.  Never truncates: an incomplete tail is
  /// left for the writer to finish.
  void refresh();

  [[nodiscard]] bool contains(const std::string& key);

  [[nodiscard]] StoreStats stats() const;

 private:
  struct IndexEntry {
    std::uint64_t frame_off = 0;  ///< offset of the frame header
    std::uint32_t key_len = 0;
    std::uint32_t payload_len = 0;
    std::uint64_t checksum = 0;
  };

  void open_log();
  void create_fresh_log();
  /// Scan frames from scan_end_, reading the log in bounded chunks (one
  /// pread per chunk, not per frame).  `allow_truncate` controls the torn-tail
  /// policy: open() truncates, refresh() leaves it for the writer.
  void scan_tail(bool allow_truncate);

  std::string dir_;
  std::string log_path_;
  int fd_ = -1;
  std::uint64_t scan_end_ = 0;  ///< log offset up to which frames are indexed
  std::map<std::string, IndexEntry> index_;
  StoreStats stats_;
  mutable std::mutex mutex_;
};

}  // namespace fne
