#include "core/snapshot.hpp"

#include <algorithm>
#include <cstring>

#include "util/hash.hpp"

namespace grads::core {

namespace {

std::uint64_t f64Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bitsF64(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotIO

void SnapshotIO::f64(double& v) {
  if (in_ == nullptr) {
    put(kTagF64, f64Bits(v));
  } else {
    v = bitsF64(take(kTagF64));
  }
}

void SnapshotIO::boolean(bool& v) {
  if (in_ == nullptr) {
    put(kTagBool, v ? 1 : 0);
  } else {
    v = take(kTagBool) != 0;
  }
}

void SnapshotIO::str(std::string& s) {
  if (in_ == nullptr) {
    put(kTagStr, s.size());
    const std::size_t nWords = (s.size() + 7) / 8;
    for (std::size_t i = 0; i < nWords; ++i) {
      std::uint64_t w = 0;
      const std::size_t n = std::min<std::size_t>(8, s.size() - i * 8);
      std::memcpy(&w, s.data() + i * 8, n);
      out_.push_back(w);
    }
    return;
  }
  const std::uint64_t len = take(kTagStr);
  if (len > remaining() * 8) {
    throw SnapshotError("snapshot string length " + std::to_string(len) +
                        " overruns the section");
  }
  s.assign(len, '\0');
  const std::size_t nWords = (len + 7) / 8;
  for (std::size_t i = 0; i < nWords; ++i) {
    const std::uint64_t w = (*in_)[pos_++];
    const std::size_t n = std::min<std::size_t>(8, len - i * 8);
    std::memcpy(s.data() + i * 8, &w, n);
  }
}

std::uint64_t SnapshotIO::takeCount() {
  const std::uint64_t n = take(kTagU64);
  if (n > remaining() / 2) {
    throw SnapshotError("snapshot element count " + std::to_string(n) +
                        " overruns the section");
  }
  return n;
}

void SnapshotIO::expect(std::uint64_t v, const char* what) {
  std::uint64_t got = v;
  u64(got);
  if (got != v) {
    throw SnapshotError(std::string(what) + " (image " + std::to_string(got) +
                        ", rebuilt " + std::to_string(v) + ")");
  }
}

void SnapshotIO::expect(double v, const char* what) {
  double got = v;
  f64(got);
  if (got != v) {
    throw SnapshotError(std::string(what) + " (image " + std::to_string(got) +
                        ", rebuilt " + std::to_string(v) + ")");
  }
}

void SnapshotIO::expect(const std::string& v, const char* what) {
  std::string got = v;
  str(got);
  if (got != v) {
    throw SnapshotError(std::string(what) + " (image '" + got +
                        "', rebuilt '" + v + "')");
  }
}

void SnapshotIO::throwInsideHook() {
  throw SnapshotError(
      "snapshot archive used inside a prop accessor or onLoad hook (field "
      "sequences must not depend on the archive direction)");
}

void SnapshotIO::throwBadField(Tag want) const {
  const auto name = [](std::uint64_t tag) {
    constexpr const char* kNames[] = {"?", "u64", "i64", "f64", "bool", "str"};
    return tag <= kTagStr ? kNames[tag] : "?";
  };
  if (pos_ + 2 > in_->size()) {
    throw SnapshotError(std::string("snapshot section exhausted reading ") +
                        name(want));
  }
  throw SnapshotError(std::string("snapshot field type mismatch: expected ") +
                      name(want) + ", found " + name((*in_)[pos_]));
}

void snapshotRng(SnapshotIO& io, Rng& rng) {
  io.prop([&rng] { return rng.state(); },
          [&rng](const RngState& st) { rng.setState(st); },
          [](SnapshotIO& a, RngState& st) {
            for (std::uint64_t& s : st.s) a.u64(s);
            a.boolean(st.haveSpare);
            a.f64(st.spare);
          });
}

// ---------------------------------------------------------------------------
// SnapshotSection / SnapshotImage

std::uint64_t SnapshotSection::checksum() const {
  std::uint64_t h = util::fnv1a64(name);
  h = util::hashCombine(h, static_cast<std::uint64_t>(version));
  for (std::uint64_t w : words) h = util::hashCombine(h, w);
  return h;
}

void SnapshotImage::addSection(SnapshotSection section) {
  if (findSection(section.name) != nullptr) {
    throw SnapshotError("duplicate snapshot section '" + section.name + "'");
  }
  sections_.push_back(std::move(section));
}

const SnapshotSection* SnapshotImage::findSection(
    const std::string& name) const {
  for (const auto& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {

void appendWord(std::vector<std::uint8_t>& out, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((w >> (8 * i)) & 0xff));
  }
}

class WordCursor {
 public:
  explicit WordCursor(const std::vector<std::uint8_t>& bytes) : bytes_(&bytes) {
    if (bytes.size() % 8 != 0) {
      throw SnapshotError("snapshot image is not word-aligned");
    }
  }

  std::uint64_t next(const char* what) {
    if (pos_ + 8 > bytes_->size()) {
      throw SnapshotError(std::string("snapshot image truncated reading ") +
                          what);
    }
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i) {
      w |= static_cast<std::uint64_t>((*bytes_)[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return w;
  }

  /// Reads a count of items packed `perWord` to a word and rejects it,
  /// before anything is allocated, when they cannot fit in the words left.
  std::uint64_t nextBounded(const char* what, std::uint64_t perWord) {
    const std::uint64_t n = next(what);
    if (n / perWord > remainingWords()) {
      throw SnapshotError(std::string("snapshot image ") + what + " " +
                          std::to_string(n) + " overruns the image");
    }
    return n;
  }

  std::size_t remainingWords() const { return (bytes_->size() - pos_) / 8; }
  bool done() const { return pos_ == bytes_->size(); }

 private:
  const std::vector<std::uint8_t>* bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> SnapshotImage::serialize() const {
  std::vector<std::uint8_t> out;
  appendWord(out, kMagic);
  appendWord(out, kFormatVersion);
  appendWord(out, f64Bits(simTime));
  appendWord(out, sections_.size());
  for (const auto& s : sections_) {
    appendWord(out, s.name.size());
    const std::size_t nameWords = (s.name.size() + 7) / 8;
    for (std::size_t i = 0; i < nameWords; ++i) {
      std::uint64_t w = 0;
      const std::size_t n = std::min<std::size_t>(8, s.name.size() - i * 8);
      std::memcpy(&w, s.name.data() + i * 8, n);
      appendWord(out, w);
    }
    appendWord(out, s.version);
    appendWord(out, s.words.size());
    for (std::uint64_t w : s.words) appendWord(out, w);
    appendWord(out, s.checksum());
  }
  appendWord(out, util::fnv1a64(out.data(), out.size()));
  return out;
}

SnapshotImage SnapshotImage::parse(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 8) throw SnapshotError("snapshot image too short");
  // Whole-image checksum covers everything before the trailing word.
  const std::uint64_t stored = [&] {
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i) {
      w |= static_cast<std::uint64_t>(bytes[bytes.size() - 8 + i]) << (8 * i);
    }
    return w;
  }();
  if (util::fnv1a64(bytes.data(), bytes.size() - 8) != stored) {
    throw SnapshotError("snapshot image checksum mismatch (corrupt image)");
  }

  WordCursor cur(bytes);
  if (cur.next("magic") != kMagic) {
    throw SnapshotError("snapshot image has wrong magic (not a snapshot?)");
  }
  const std::uint64_t fmt = cur.next("format version");
  if (fmt != kFormatVersion) {
    throw SnapshotError("unsupported snapshot format version " +
                        std::to_string(fmt));
  }
  SnapshotImage img;
  img.simTime = bitsF64(cur.next("sim time"));
  const std::uint64_t nSections = cur.nextBounded("section count", 1);
  for (std::uint64_t i = 0; i < nSections; ++i) {
    SnapshotSection sec;
    const std::uint64_t nameLen = cur.nextBounded("section name length", 8);
    const std::size_t nameWords = (nameLen + 7) / 8;
    sec.name.resize(nameLen);
    for (std::size_t j = 0; j < nameWords; ++j) {
      const std::uint64_t w = cur.next("section name");
      const std::size_t n = std::min<std::size_t>(8, nameLen - j * 8);
      std::memcpy(sec.name.data() + j * 8, &w, n);
    }
    sec.version = static_cast<std::uint32_t>(cur.next("section version"));
    const std::uint64_t nWords = cur.nextBounded("section word count", 1);
    sec.words.reserve(nWords);
    for (std::uint64_t j = 0; j < nWords; ++j) {
      sec.words.push_back(cur.next("section payload"));
    }
    const std::uint64_t sum = cur.next("section checksum");
    if (sec.checksum() != sum) {
      throw SnapshotError("checksum mismatch in snapshot section '" +
                          sec.name + "'");
    }
    img.addSection(std::move(sec));
  }
  cur.next("image checksum");  // already verified above; consume it
  if (!cur.done()) throw SnapshotError("trailing bytes after snapshot image");
  return img;
}

std::uint64_t SnapshotImage::digest() const {
  const auto bytes = serialize();
  return util::fnv1a64(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// SnapshotRegistry

void SnapshotRegistry::add(Snapshottable& component) {
  for (const auto* c : components_) {
    if (std::string(c->snapshotSection()) == component.snapshotSection()) {
      throw SnapshotError(std::string("duplicate snapshot component '") +
                          component.snapshotSection() + "'");
    }
  }
  components_.push_back(&component);
}

SnapshotImage SnapshotRegistry::capture(double simTime) const {
  SnapshotImage img;
  img.simTime = simTime;
  for (auto* c : components_) {
    SnapshotIO io = SnapshotIO::writer();
    c->snapshotFields(io);
    SnapshotSection sec;
    sec.name = c->snapshotSection();
    sec.version = c->snapshotVersion();
    sec.words = std::move(io.out_);
    img.addSection(std::move(sec));
  }
  return img;
}

void SnapshotRegistry::restore(const SnapshotImage& image) {
  // Validate every section before mutating anything: restore is all-or-
  // nothing at the registry level.
  for (auto* c : components_) {
    const auto* sec = image.findSection(c->snapshotSection());
    if (sec == nullptr) {
      throw SnapshotError(std::string("snapshot image is missing section '") +
                          c->snapshotSection() + "'");
    }
    if (sec->version != c->snapshotVersion()) {
      throw SnapshotError(std::string("snapshot section '") +
                          c->snapshotSection() + "' version " +
                          std::to_string(sec->version) +
                          " does not match component version " +
                          std::to_string(c->snapshotVersion()));
    }
  }
  for (auto* c : components_) {
    const auto* sec = image.findSection(c->snapshotSection());
    SnapshotIO io = SnapshotIO::reader(sec->words);
    c->snapshotFields(io);
    if (io.remaining() != 0) {
      throw SnapshotError(std::string("snapshot section '") +
                          c->snapshotSection() + "' has " +
                          std::to_string(io.remaining()) +
                          " unread words after restore");
    }
  }
}

}  // namespace grads::core
