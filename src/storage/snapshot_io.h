// Low-level binary I/O for the binary snapshot formats (v2 and v3): section
// framing with per-section lengths and FNV-1a checksums, bounds-checked
// buffer parsing of POD scalars and arrays, and the string-table
// dump/restore that persists the slice of the global ValuePool a
// database references.
//
// The framing is deliberately dumb: a snapshot is a fixed header line
// followed by sections `tag(4) | payload_len(8) | fnv1a64(8) | payload`.
// Readers never trust a length before the bytes actually arrive (payload
// is read in bounded chunks, so a corrupted length cannot trigger a
// giant allocation), and never trust a count inside a payload before
// checking it against the bytes remaining in that payload.
//
// Everything here is host-byte-order; the META section of the snapshot
// carries an endianness mark so a snapshot moved across byte orders is
// rejected instead of misread (see docs/SNAPSHOT_FORMAT.md).
#ifndef MAYBMS_STORAGE_SNAPSHOT_IO_H_
#define MAYBMS_STORAGE_SNAPSHOT_IO_H_

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace maybms {

/// Four-byte section tag ("META", "STRS", ...).
constexpr uint32_t SnapshotFourCC(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// Renders a tag for error messages ("STRS").
std::string SnapshotTagName(uint32_t tag);

// --- payload building (writer side) ---------------------------------------

/// Appends the raw bytes of a trivially-copyable scalar.
template <typename T>
void PutPod(std::string* out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Appends the raw bytes of a whole POD array (the columnar bulk path).
template <typename T>
void PutArray(std::string* out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (v.empty()) return;  // data() may be null on an empty vector
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

/// Appends a uint32 length prefix + bytes.
void PutLenString(std::string* out, std::string_view s);

/// Writes one framed section: tag, payload length, FNV-1a64 checksum,
/// payload bytes.
Status WriteSnapshotSection(std::ostream& out, uint32_t tag,
                            std::string_view payload);

// --- section reading (reader side) -----------------------------------------

/// One checksum-verified section.
struct SnapshotSection {
  uint32_t tag = 0;
  std::string payload;
};

/// Reads the next section. Fails with ParseError on truncation or
/// checksum mismatch. The payload is read in bounded chunks, so a
/// corrupted length field cannot cause an allocation larger than the
/// bytes actually present.
Result<SnapshotSection> ReadSnapshotSection(std::istream& in);

/// Bounds-checked cursor over one section payload. All reads fail with
/// ParseError instead of walking past the end, and array reads validate
/// `count * sizeof(T)` against the remaining bytes *before* allocating.
class SnapshotCursor {
 public:
  explicit SnapshotCursor(std::string_view payload) : p_(payload) {}

  size_t remaining() const { return p_.size() - pos_; }
  bool AtEnd() const { return pos_ == p_.size(); }

  template <typename T>
  Result<T> Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) {
      return Status::ParseError("snapshot payload truncated");
    }
    T v;
    std::memcpy(&v, p_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  Status ReadArray(size_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) {
      return Status::ParseError("snapshot array length exceeds payload");
    }
    out->resize(count);
    if (count != 0) {  // data() may be null on an empty vector
      std::memcpy(out->data(), p_.data() + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    }
    return Status::OK();
  }

  /// A view of `len` raw payload bytes (valid while the payload lives).
  Result<std::string_view> ReadBytes(size_t len);

  /// uint32 length prefix + bytes, as written by PutLenString.
  Result<std::string> ReadLenString();

 private:
  std::string_view p_;
  size_t pos_ = 0;
};

// --- string table (ValuePool dump/restore) ---------------------------------

/// Writer-side dictionary: assigns dense snapshot-local ids to the
/// distinct strings a database references, in first-use order. The
/// global ValuePool's ids are process-specific and never hit the wire.
class SnapshotStringTable {
 public:
  /// Local id for a string given by content. `s` must stay alive until
  /// Serialize() (it is not copied) — pool entries and template-cell
  /// Values are both stable during a save.
  uint32_t IdForContent(std::string_view s);

  /// Local id for a global ValuePool id (cached, O(1) on repeats — the
  /// per-cell path of the columnar writer).
  uint32_t IdForGlobal(uint32_t global_id);

  size_t size() const { return entries_.size(); }

  /// Payload of the STRS section: count, blob length, offset table
  /// (count + 1 entries, so entry i spans [off[i], off[i+1])), blob.
  std::string Serialize() const;

  /// Reads a STRS payload, interns every entry into the global
  /// ValuePool, and returns the local→global id map.
  static Result<std::vector<uint32_t>> Restore(std::string_view payload);

 private:
  std::vector<std::string_view> entries_;
  std::unordered_map<std::string_view, uint32_t> by_content_;
  std::vector<uint32_t> by_global_;  ///< global id -> local id (or kUnset)
};

}  // namespace maybms

#endif  // MAYBMS_STORAGE_SNAPSHOT_IO_H_
