#include "store/result_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <vector>

#include "util/hash.hpp"
#include "util/require.hpp"

namespace fne {

namespace {

constexpr char kFileMagic[8] = {'F', 'N', 'E', 'S', 'T', 'O', 'R', 'E'};
constexpr std::size_t kHeaderSize = 16;  // magic + u32 version + u32 reserved
constexpr std::uint32_t kFrameMagic = 0x43454E46;  // "FNEC" little-endian
constexpr std::size_t kFrameHeaderSize = 24;
constexpr std::uint32_t kFrameFormat = 1;
// Corruption ceilings: a frame claiming more than this is a torn/garbage
// tail, not a big record.
constexpr std::uint32_t kMaxKeyLen = 1u << 20;
constexpr std::uint32_t kMaxPayloadLen = 1u << 30;

void put_u32(std::string& buf, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) buf.push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) buf.push_back(static_cast<char>((v >> (8 * b)) & 0xFF));
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(p[b]) << (8 * b);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

/// pread exactly `len` bytes at `off`; returns bytes actually read (short
/// only at EOF).
std::size_t read_at(int fd, std::uint64_t off, void* out, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, static_cast<char*>(out) + done, len - done,
                              static_cast<off_t>(off + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      FNE_REQUIRE(false, "result store: pread failed");
    }
    if (n == 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

std::uint64_t frame_checksum(std::string_view key, std::string_view payload) {
  Fnv1a h;
  h.text(key);
  h.text(payload);
  return h.value();
}

std::uint64_t file_size_of(int fd) {
  struct stat st {};
  FNE_REQUIRE(::fstat(fd, &st) == 0, "result store: fstat failed");
  return static_cast<std::uint64_t>(st.st_size);
}

/// Bytes a log scan reads per pread (fewer at the end of the log).
constexpr std::size_t kScanChunk = std::size_t{1} << 20;

/// A read window over the log prefix [0, size) for scan_tail: frames are
/// served from one buffer filled kScanChunk bytes at a time, so a scan
/// costs one pread per chunk instead of two per frame.  The buffer holds
/// at most max(kScanChunk, largest frame) bytes, whatever the log size.
class ScanWindow {
 public:
  ScanWindow(int fd, std::uint64_t size) : fd_(fd), size_(size) {}

  /// True when at(off, len) would not move the window (and so would not
  /// invalidate pointers it returned before).
  [[nodiscard]] bool holds(std::uint64_t off, std::size_t len) const {
    return off >= start_ && off + len <= start_ + filled_;
  }

  /// The bytes [off, off + len), or nullptr when the log prefix ends first.
  const unsigned char* at(std::uint64_t off, std::size_t len) {
    if (holds(off, len)) return buf_.data() + (off - start_);
    if (off > size_ || len > size_ - off) return nullptr;
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(std::max(len, kScanChunk), size_ - off));
    if (buf_.size() < want) buf_.resize(want);
    start_ = off;
    filled_ = read_at(fd_, off, buf_.data(), want);
    return filled_ >= len ? buf_.data() : nullptr;
  }

 private:
  int fd_;
  std::uint64_t size_;
  std::vector<unsigned char> buf_;
  std::uint64_t start_ = 0;  ///< log offset of buf_[0]
  std::size_t filled_ = 0;   ///< valid bytes in buf_
};

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  FNE_REQUIRE(!ec, "result store: cannot create directory " + dir_);
  log_path_ = (fs::path(dir_) / "cells.log").string();
  open_log();
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

void ResultStore::create_fresh_log() {
  namespace fs = std::filesystem;
  // Temp + rename: a crash mid-create leaves a stray .tmp, never a
  // half-written cells.log.
  const std::string tmp = log_path_ + ".tmp." + std::to_string(::getpid());
  const int tfd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  FNE_REQUIRE(tfd >= 0, "result store: cannot create " + tmp);
  std::string header(kFileMagic, sizeof(kFileMagic));
  put_u32(header, kStoreSchemaVersion);
  put_u32(header, 0);  // reserved
  const ssize_t n = ::write(tfd, header.data(), header.size());
  ::fsync(tfd);
  ::close(tfd);
  FNE_REQUIRE(n == static_cast<ssize_t>(header.size()),
              "result store: cannot write header of " + tmp);
  std::error_code ec;
  fs::rename(tmp, log_path_, ec);
  FNE_REQUIRE(!ec, "result store: cannot install " + log_path_);
}

void ResultStore::open_log() {
  namespace fs = std::filesystem;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!fs::exists(log_path_)) create_fresh_log();
    fd_ = ::open(log_path_.c_str(), O_RDWR | O_APPEND);
    FNE_REQUIRE(fd_ >= 0, "result store: cannot open " + log_path_);

    unsigned char header[kHeaderSize];
    const std::size_t got = read_at(fd_, 0, header, kHeaderSize);
    const bool magic_ok =
        got == kHeaderSize && std::memcmp(header, kFileMagic, sizeof(kFileMagic)) == 0;
    const std::uint32_t version = magic_ok ? get_u32(header + 8) : 0;
    if (magic_ok && version == kStoreSchemaVersion) {
      scan_end_ = kHeaderSize;
      scan_tail(/*allow_truncate=*/true);
      return;
    }

    // Not ours (or a schema we no longer read): rotate it aside and
    // start fresh.  The campaign then recomputes — degrade, never crash.
    ::close(fd_);
    fd_ = -1;
    const std::string aside =
        magic_ok ? log_path_ + ".v" + std::to_string(version) : log_path_ + ".bad";
    std::error_code ec;
    fs::rename(log_path_, aside, ec);
    FNE_REQUIRE(!ec, "result store: cannot rotate " + log_path_ + " to " + aside);
    ++stats_.rotated_files;
  }
  FNE_REQUIRE(false, "result store: could not establish a readable log at " + log_path_);
}

void ResultStore::scan_tail(bool allow_truncate) {
  const std::uint64_t size = file_size_of(fd_);
  ScanWindow window(fd_, size);
  // Frames read from the current window, not yet indexed, with their
  // bodies (key bytes then payload bytes) as views into the window.  They
  // are checksummed together (fnv1a_batch) and indexed in log order
  // before the window moves, which would invalidate the views.
  struct Frame {
    std::uint64_t off = 0;
    std::uint32_t key_len = 0;
    std::uint32_t payload_len = 0;
    std::uint32_t format = 0;
    std::uint64_t checksum = 0;
  };
  std::vector<Frame> pending;
  std::vector<std::string_view> bodies;
  std::vector<std::uint64_t> sums;
  const auto index_pending = [&] {
    sums.resize(pending.size());
    fnv1a_batch(bodies, sums);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const Frame& f = pending[i];
      if (f.format != kFrameFormat || sums[i] != f.checksum) {
        // Framing intact, content bad: skip just this record.  It is not
        // indexed, so a later good copy of the key (or a later put() of
        // it) is.
        ++stats_.corrupt_records;
        continue;
      }
      // First write wins; a duplicate frame (two processes racing the
      // same key) carries identical bytes by the determinism contract.
      index_.try_emplace(std::string(bodies[i].substr(0, f.key_len)),
                         IndexEntry{f.off, f.key_len, f.payload_len, f.checksum});
    }
    pending.clear();
    bodies.clear();
  };
  const auto read = [&](std::uint64_t off, std::size_t len) {
    if (!window.holds(off, len)) index_pending();
    return window.at(off, len);
  };

  while (scan_end_ < size) {
    const unsigned char* fh = read(scan_end_, kFrameHeaderSize);
    const unsigned char* body = nullptr;
    Frame frame;
    if (fh != nullptr) {
      frame.key_len = get_u32(fh + 4);
      frame.payload_len = get_u32(fh + 8);
      frame.format = get_u32(fh + 12);
      frame.checksum = get_u64(fh + 16);
      const bool framed = get_u32(fh) == kFrameMagic && frame.key_len != 0 &&
                          frame.key_len <= kMaxKeyLen && frame.payload_len <= kMaxPayloadLen &&
                          scan_end_ + kFrameHeaderSize + frame.key_len + frame.payload_len <= size;
      if (framed) {
        body = read(scan_end_ + kFrameHeaderSize,
                    static_cast<std::size_t>(frame.key_len) + frame.payload_len);
      }
    }
    if (body == nullptr) {
      // A torn or garbage tail.  open() drops it (the writer died
      // mid-append); refresh() leaves it — a live writer may still be
      // completing the frame.
      index_pending();
      if (allow_truncate) {
        stats_.truncated_bytes += size - scan_end_;
        FNE_REQUIRE(::ftruncate(fd_, static_cast<off_t>(scan_end_)) == 0,
                    "result store: cannot truncate torn tail of " + log_path_);
      }
      return;
    }
    frame.off = scan_end_;
    pending.push_back(frame);
    bodies.emplace_back(reinterpret_cast<const char*>(body),
                        static_cast<std::size_t>(frame.key_len) + frame.payload_len);
    scan_end_ += kFrameHeaderSize + frame.key_len + frame.payload_len;
  }
  index_pending();
}

std::optional<std::string> ResultStore::load(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  const IndexEntry entry = it->second;
  std::string body(static_cast<std::size_t>(entry.key_len) + entry.payload_len, '\0');
  const bool read_ok =
      read_at(fd_, entry.frame_off + kFrameHeaderSize, body.data(), body.size()) ==
      body.size();
  const std::string_view stored_key(body.data(), entry.key_len);
  const std::string_view payload(body.data() + entry.key_len, entry.payload_len);
  if (!read_ok || stored_key != key ||
      frame_checksum(stored_key, payload) != entry.checksum) {
    // The log changed under us or the index entry is stale/colliding:
    // drop it and miss.
    index_.erase(it);
    ++stats_.corrupt_records;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  stats_.bytes_loaded += entry.payload_len;
  return std::string(payload);
}

void ResultStore::put(const std::string& key, const std::string& payload) {
  FNE_REQUIRE(!key.empty() && key.size() <= kMaxKeyLen,
              "result store: key size out of range");
  FNE_REQUIRE(payload.size() <= kMaxPayloadLen, "result store: payload too large");
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index_.contains(key)) return;  // first write wins

  std::string frame;
  frame.reserve(kFrameHeaderSize + key.size() + payload.size());
  put_u32(frame, kFrameMagic);
  put_u32(frame, static_cast<std::uint32_t>(key.size()));
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, kFrameFormat);
  put_u64(frame, frame_checksum(key, payload));
  frame += key;
  frame += payload;

  // ONE write() on an O_APPEND fd: atomic placement at the end even with
  // a concurrent writer, and a kill mid-call leaves only a torn tail.
  const ssize_t n = ::write(fd_, frame.data(), frame.size());
  FNE_REQUIRE(n == static_cast<ssize_t>(frame.size()),
              "result store: append failed on " + log_path_);
  stats_.bytes_committed += payload.size();
  // Index our own frame — and any frames another process interleaved
  // before it — by scanning forward from the last indexed offset.
  scan_tail(/*allow_truncate=*/false);
}

void ResultStore::refresh() {
  const std::lock_guard<std::mutex> lock(mutex_);
  scan_tail(/*allow_truncate=*/false);
}

bool ResultStore::contains(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.contains(key);
}

StoreStats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  StoreStats out = stats_;
  out.records = index_.size();
  return out;
}

}  // namespace fne
