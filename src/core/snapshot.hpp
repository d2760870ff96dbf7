#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace grads::core {

/// Raised on any snapshot capture/restore failure: truncated images, lengths
/// that overrun the image, checksum mismatches, type-tag mismatches, unknown
/// format versions, a component whose section is missing from the image
/// being restored, or a rebuilt component whose shape (topology, roster,
/// tenant count, app identity) does not match the image.
class SnapshotError : public Error {
 public:
  explicit SnapshotError(const std::string& what) : Error(what) {}
};

/// The snapshot archive: one object that either writes or reads a
/// component's fields, so each component describes its state once, in
/// snapshotFields(), and capture and restore cannot drift apart.
///
/// Every field travels as a type-tag word followed by its payload words, so
/// an image that does not match the visitor fails loudly on the next field
/// instead of silently reinterpreting bytes. There is deliberately no public
/// way to ask which direction an archive runs: code that must differ on
/// load goes through prop() or onLoad(), and any archive call made from
/// inside those callbacks throws SnapshotError. Asymmetric field sequences
/// are therefore unrepresentable.
class SnapshotIO {
 public:
  /// An archive that appends every visited field to words().
  static SnapshotIO writer() { return SnapshotIO(nullptr); }
  /// An archive that assigns every visited field from `words`, which must
  /// outlive it.
  static SnapshotIO reader(const std::vector<std::uint64_t>& words) {
    return SnapshotIO(&words);
  }

  SnapshotIO(const SnapshotIO&) = delete;
  SnapshotIO& operator=(const SnapshotIO&) = delete;

  // --- Typed fields. Integral and enum values travel as the u64 or i64
  // word the call site names; the cast back on load is to the field's type.

  template <class T>
  void u64(T& v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    if (in_ == nullptr) {
      put(kTagU64, static_cast<std::uint64_t>(v));
    } else {
      v = static_cast<T>(take(kTagU64));
    }
  }

  template <class T>
  void i64(T& v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    if (in_ == nullptr) {
      put(kTagI64, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    } else {
      v = static_cast<T>(static_cast<std::int64_t>(take(kTagI64)));
    }
  }

  void f64(double& v);
  void boolean(bool& v);
  void str(std::string& v);

  /// Length-prefixed sequence (vector, deque, set): the count, then `elem`
  /// over each element as `elem(io, element&)`. On load the container is
  /// cleared and refilled in order. Every element must visit at least one
  /// field, which bounds a loaded count by the words that remain.
  template <class C, class Elem>
  void seq(C& c, Elem&& elem) {
    using V = typename C::value_type;
    if (in_ == nullptr) {
      put(kTagU64, c.size());
      // Writers only read fields, so set elements may be visited in place.
      for (auto& x : c) elem(*this, const_cast<V&>(x));
      return;
    }
    const std::uint64_t n = takeCount();
    c.clear();
    if constexpr (requires { c.reserve(n); }) c.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      V v{};
      elem(*this, v);
      c.insert(c.end(), std::move(v));
    }
  }

  /// Length-prefixed ordered map: the count, then `entry(io, key&, value&)`
  /// per entry in key order. On load the map is cleared and refilled.
  template <class M, class Entry>
  void map(M& m, Entry&& entry) {
    using K = typename M::key_type;
    if (in_ == nullptr) {
      put(kTagU64, m.size());
      for (auto& [k, v] : m) entry(*this, const_cast<K&>(k), v);
      return;
    }
    const std::uint64_t n = takeCount();
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      typename M::mapped_type v{};
      entry(*this, k, v);
      m.insert_or_assign(m.end(), std::move(k), std::move(v));
    }
  }

  /// A shape or identity check: writes `v`; on load reads the image's value
  /// and throws SnapshotError (prefixed with `what`) unless it equals `v`.
  void expect(std::uint64_t v, const char* what);
  void expect(double v, const char* what);
  void expect(const std::string& v, const char* what);

  /// A value behind accessors: writes `fields(io, get())`; on load visits
  /// `fields` into a default-constructed value and hands it to `set`. The
  /// two-argument form covers double and bool values.
  template <class Get, class Set, class Fields>
  void prop(Get&& get, Set&& set, Fields&& fields) {
    using T = std::decay_t<std::invoke_result_t<Get&>>;
    guard();
    if (in_ == nullptr) {
      T v = hooked(get);
      fields(*this, v);
    } else {
      T v{};
      fields(*this, v);
      hooked([&] { set(std::move(v)); });
    }
  }

  template <class Get, class Set>
  void prop(Get&& get, Set&& set) {
    prop(get, set, [](SnapshotIO& io, auto& v) { io.scalar(v); });
  }

  /// Runs `fn` on load only, at this point of the visit — for state derived
  /// from fields already visited (running sums, indexes, gauges).
  template <class Fn>
  void onLoad(Fn&& fn) {
    guard();
    if (in_ != nullptr) hooked(fn);
  }

  /// The words written so far (always empty on a reader).
  const std::vector<std::uint64_t>& words() const { return out_; }
  /// Words not yet read (always 0 on a writer).
  std::size_t remaining() const {
    return in_ == nullptr ? 0 : in_->size() - pos_;
  }

 private:
  friend class SnapshotRegistry;

  // Field type tags. Values are part of the on-disk format; never reorder.
  enum Tag : std::uint64_t {
    kTagU64 = 1,
    kTagI64 = 2,
    kTagF64 = 3,
    kTagBool = 4,
    kTagStr = 5,
  };

  explicit SnapshotIO(const std::vector<std::uint64_t>* in) : in_(in) {}

  void guard() const {
    if (hooks_ != 0) throwInsideHook();
  }

  void put(Tag tag, std::uint64_t v) {
    guard();
    out_.push_back(tag);
    out_.push_back(v);
  }

  std::uint64_t take(Tag tag) {
    guard();
    const std::vector<std::uint64_t>& in = *in_;
    if (pos_ + 2 > in.size() || in[pos_] != tag) throwBadField(tag);
    pos_ += 2;
    return in[pos_ - 1];
  }

  /// A seq/map count, bounded by the words left: each element is at least
  /// one tagged field (two words), so a larger count can only be garbage.
  std::uint64_t takeCount();

  template <class T>
  void scalar(T& v) {
    if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else {
      static_assert(std::is_same_v<T, bool>,
                    "prop(get, set) covers double and bool; pass a fields "
                    "visitor for other types");
      boolean(v);
    }
  }

  template <class Fn>
  decltype(auto) hooked(Fn&& fn) {
    struct Depth {
      int& hooks;
      explicit Depth(int& h) : hooks(h) { ++hooks; }
      ~Depth() { --hooks; }
    } depth(hooks_);
    return fn();
  }

  [[noreturn]] static void throwInsideHook();
  [[noreturn]] void throwBadField(Tag want) const;

  const std::vector<std::uint64_t>* in_;  ///< null on a writer
  std::vector<std::uint64_t> out_;
  std::size_t pos_ = 0;
  int hooks_ = 0;  ///< prop accessors / onLoad hooks currently running
};

/// An Rng's stream position as a prop: four state words, the spare flag and
/// the spare normal, restored through Rng::setState.
void snapshotRng(SnapshotIO& io, Rng& rng);

/// Interface a component implements to participate in whole-simulation
/// snapshots. snapshotFields() visits the component's logical state in wire
/// order; the registry runs it against a writer on capture and a reader on
/// restore. snapshotVersion() is stored per section and verified on restore
/// so stale images fail with a versioned error instead of a tag mismatch
/// deep inside the visit.
///
/// Contract: on load the visit fully overwrites the component's logical
/// state but must NOT schedule engine events — restore happens at a
/// quiescent boundary and daemons are re-armed explicitly afterwards (see
/// DESIGN.md §8).
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual const char* snapshotSection() const = 0;
  virtual std::uint32_t snapshotVersion() const { return 1; }
  virtual void snapshotFields(SnapshotIO& io) = 0;
};

/// One named, versioned, checksummed section of a snapshot image.
struct SnapshotSection {
  std::string name;
  std::uint32_t version = 1;
  std::vector<std::uint64_t> words;

  /// FNV-1a over name, version, and payload words.
  std::uint64_t checksum() const;
};

/// A whole-simulation snapshot: the simulation clock plus every registered
/// component's section. serialize()/parse() round-trip through a flat byte
/// buffer with per-section checksums and a whole-image checksum, so a
/// corrupt or truncated image is rejected before any component restores.
class SnapshotImage {
 public:
  static constexpr std::uint64_t kMagic = 0x31504e5344524722ULL;  // "\"GRDSNP1"
  static constexpr std::uint64_t kFormatVersion = 1;

  double simTime = 0.0;

  void addSection(SnapshotSection section);
  const SnapshotSection* findSection(const std::string& name) const;
  const std::vector<SnapshotSection>& sections() const { return sections_; }

  std::vector<std::uint8_t> serialize() const;
  static SnapshotImage parse(const std::vector<std::uint8_t>& bytes);

  /// FNV-1a over the serialized bytes — the image's identity. The crash
  /// sweep caches its uncrashed reference arm per image digest.
  std::uint64_t digest() const;

 private:
  std::vector<SnapshotSection> sections_;
};

/// Ordered set of components that make up one snapshot domain. Registration
/// order is capture order; restore visits every registered component from
/// its named section (missing section, version skew, or leftover words are
/// all errors — partial restores are forbidden).
class SnapshotRegistry {
 public:
  void add(Snapshottable& component);

  SnapshotImage capture(double simTime) const;
  void restore(const SnapshotImage& image);

  std::size_t size() const { return components_.size(); }

 private:
  std::vector<Snapshottable*> components_;
};

}  // namespace grads::core
