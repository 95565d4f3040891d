// Deliberately slow text serializer modelling Rotor's reflective one.
//
// Every value goes through iostream formatting into a per-record
// ostringstream (fresh allocations per record), payloads are hex-encoded
// byte-by-byte, and parsing reads the same format back with istream
// extraction. The point is not to be bad gratuitously — this is the
// classic shape of a reflective, format-per-field serializer, and it is
// what the paper measured on Rotor. It lives with the benches: only the
// serialization bench and the serializer tests use it, and no process reads
// its format back.
#include "bench/naive_serializer.h"

#include <charconv>
#include <sstream>
#include <string>

#include "src/common/bytes.h"
#include "tests/snapshot_builder.h"

namespace adgc {

namespace {

void hex_encode(std::ostringstream& os, const std::vector<std::byte>& data) {
  static const char* kHex = "0123456789abcdef";
  for (std::byte b : data) {
    const auto v = static_cast<unsigned>(b);
    os << kHex[v >> 4] << kHex[v & 0xF];
  }
}

std::vector<std::byte> hex_decode(const std::string& s) {
  if (s.size() % 2 != 0) throw DecodeError("odd hex payload");
  auto nibble = [](char c) -> unsigned {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    throw DecodeError("bad hex digit");
  };
  std::vector<std::byte> out;
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    out.push_back(static_cast<std::byte>((nibble(s[i]) << 4) | nibble(s[i + 1])));
  }
  return out;
}

class LineReader {
 public:
  explicit LineReader(std::span<const std::byte> bytes)
      : text_(reinterpret_cast<const char*>(bytes.data()), bytes.size()) {}

  std::string line() {
    if (pos_ >= text_.size()) throw DecodeError("unexpected end of text snapshot");
    const std::size_t nl = text_.find('\n', pos_);
    const std::size_t end = (nl == std::string_view::npos) ? text_.size() : nl;
    std::string out(text_.substr(pos_, end - pos_));
    pos_ = (nl == std::string_view::npos) ? text_.size() : nl + 1;
    return out;
  }

  bool done() const { return pos_ >= text_.size(); }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

std::uint64_t field_u64(std::istringstream& is, const char* what) {
  std::string tok;
  if (!(is >> tok)) throw DecodeError(std::string("missing field: ") + what);
  std::uint64_t v = 0;
  const auto* first = tok.data();
  const auto* last = tok.data() + tok.size();
  auto [p, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || p != last) throw DecodeError(std::string("bad number: ") + what);
  return v;
}

}  // namespace

std::vector<std::byte> NaiveSerializer::serialize(const SnapshotData& snap) const {
  std::string out;
  {
    std::ostringstream hdr;
    hdr << "snapshot pid " << snap.pid << " at " << snap.taken_at << "\n";
    out += hdr.str();
  }
  {
    std::ostringstream os;
    os << "roots " << snap.roots.size();
    for (ObjectSeq r : snap.roots) os << " " << r;
    os << "\n";
    out += os.str();
  }
  {
    std::ostringstream os;
    os << "objects " << snap.num_objects() << "\n";
    out += os.str();
  }
  static const std::vector<std::byte> kNoPayload;
  for (std::size_t i = 0; i < snap.num_objects(); ++i) {
    // One fresh stream per record — the reflective-serializer allocation
    // pattern the benchmark is meant to expose.
    std::ostringstream os;
    os << "object seq " << snap.seqs[i];
    os << " locals " << snap.local(i).size();
    for (std::uint32_t t : snap.local(i)) os << " " << snap.seqs[t];
    os << " remotes " << snap.remote(i).size();
    for (RefId f : snap.remote(i)) os << " " << f;
    os << " payload ";
    hex_encode(os, snap.payloads.empty() ? kNoPayload : snap.payloads[i]);
    os << "\n";
    out += os.str();
  }
  {
    std::ostringstream os;
    os << "stubs " << snap.stubs.size() << "\n";
    out += os.str();
  }
  for (const auto& s : snap.stubs) {
    std::ostringstream os;
    os << "stub ref " << s.ref << " owner " << s.target.owner << " seq " << s.target.seq
       << " ic " << s.ic << "\n";
    out += os.str();
  }
  {
    std::ostringstream os;
    os << "scions " << snap.scions.size() << "\n";
    out += os.str();
  }
  for (const auto& s : snap.scions) {
    std::ostringstream os;
    os << "scion ref " << s.ref << " holder " << s.holder << " target " << s.target
       << " ic " << s.ic << "\n";
    out += os.str();
  }
  const auto* p = reinterpret_cast<const std::byte*>(out.data());
  return {p, p + out.size()};
}

SnapshotData NaiveSerializer::deserialize(std::span<const std::byte> bytes) const {
  LineReader lines(bytes);
  SnapshotData snap;
  {
    std::istringstream is(lines.line());
    std::string kw;
    is >> kw;
    if (kw != "snapshot") throw DecodeError("bad snapshot header");
    is >> kw;  // "pid"
    snap.pid = static_cast<ProcessId>(field_u64(is, "pid"));
    is >> kw;  // "at"
    snap.taken_at = field_u64(is, "taken_at");
  }
  {
    std::istringstream is(lines.line());
    std::string kw;
    is >> kw;
    if (kw != "roots") throw DecodeError("expected roots line");
    const std::uint64_t n = field_u64(is, "roots count");
    for (std::uint64_t i = 0; i < n; ++i) snap.roots.push_back(field_u64(is, "root"));
  }
  std::uint64_t nobjs = 0;
  {
    std::istringstream is(lines.line());
    std::string kw;
    is >> kw;
    if (kw != "objects") throw DecodeError("expected objects line");
    nobjs = field_u64(is, "objects count");
  }
  std::vector<SnapshotObject> objects;
  for (std::uint64_t i = 0; i < nobjs; ++i) {
    std::istringstream is(lines.line());
    std::string kw;
    is >> kw;
    if (kw != "object") throw DecodeError("expected object record");
    SnapshotObject o;
    is >> kw;  // "seq"
    o.seq = field_u64(is, "seq");
    is >> kw;  // "locals"
    const std::uint64_t nl = field_u64(is, "locals count");
    for (std::uint64_t k = 0; k < nl; ++k) o.local_fields.push_back(field_u64(is, "local"));
    is >> kw;  // "remotes"
    const std::uint64_t nr = field_u64(is, "remotes count");
    for (std::uint64_t k = 0; k < nr; ++k) o.remote_fields.push_back(field_u64(is, "remote"));
    is >> kw;  // "payload"
    std::string hex;
    is >> hex;
    o.payload = hex_decode(hex);
    objects.push_back(std::move(o));
  }
  std::uint64_t nstubs = 0;
  {
    std::istringstream is(lines.line());
    std::string kw;
    is >> kw;
    if (kw != "stubs") throw DecodeError("expected stubs line");
    nstubs = field_u64(is, "stubs count");
  }
  snap.stubs.reserve(nstubs);
  for (std::uint64_t i = 0; i < nstubs; ++i) {
    std::istringstream is(lines.line());
    std::string kw;
    is >> kw >> kw;  // "stub" "ref"
    SnapshotData::Stub s;
    s.ref = field_u64(is, "stub ref");
    is >> kw;  // "owner"
    s.target.owner = static_cast<ProcessId>(field_u64(is, "owner"));
    is >> kw;  // "seq"
    s.target.seq = field_u64(is, "target seq");
    is >> kw;  // "ic"
    s.ic = field_u64(is, "ic");
    snap.stubs.push_back(s);
  }
  std::uint64_t nscions = 0;
  {
    std::istringstream is(lines.line());
    std::string kw;
    is >> kw;
    if (kw != "scions") throw DecodeError("expected scions line");
    nscions = field_u64(is, "scions count");
  }
  snap.scions.reserve(nscions);
  for (std::uint64_t i = 0; i < nscions; ++i) {
    std::istringstream is(lines.line());
    std::string kw;
    is >> kw >> kw;  // "scion" "ref"
    SnapshotData::Scion s;
    s.ref = field_u64(is, "scion ref");
    is >> kw;  // "holder"
    s.holder = static_cast<ProcessId>(field_u64(is, "holder"));
    is >> kw;  // "target"
    s.target = field_u64(is, "target");
    is >> kw;  // "ic"
    s.ic = field_u64(is, "ic");
    snap.scions.push_back(s);
  }
  if (!pack_objects(snap, objects)) throw DecodeError("object seq repeated or out of range");
  return snap;
}

}  // namespace adgc
