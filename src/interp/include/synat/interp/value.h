// Runtime values and location identities for the SYNL interpreter.
#pragma once

#include <cstdint>
#include <string>

namespace synat::interp {

/// Heap object id; 0 is null.
using ObjId = uint32_t;
inline constexpr ObjId kNull = 0;

/// 16 bytes: the payloads come first so the kind packs into their padding.
struct Value {
  enum Kind : uint8_t { Unit, Int, Bool, Ref };
  int64_t i = 0;  ///< integer / boolean payload
  ObjId ref = kNull;
  Kind kind = Unit;

  static Value unit() { return {}; }
  static Value of_int(int64_t v) { return {v, kNull, Int}; }
  static Value of_bool(bool v) { return {v ? 1 : 0, kNull, Bool}; }
  static Value of_ref(ObjId o) { return {0, o, Ref}; }
  static Value null() { return of_ref(kNull); }

  bool truthy() const { return kind == Bool ? i != 0 : (kind == Ref ? ref != kNull : i != 0); }
  bool is_null() const { return kind == Ref && ref == kNull; }

  friend bool operator==(const Value&, const Value&) = default;

  std::string str() const {
    switch (kind) {
      case Unit: return "unit";
      case Int: return std::to_string(i);
      case Bool: return i ? "true" : "false";
      case Ref: return ref == kNull ? "null" : "@" + std::to_string(ref);
    }
    return "?";
  }
};

/// Identity of a mutable memory cell, used for LL/SC reservations.
struct LocKey {
  enum Kind : uint8_t { Global, Field, Elem } kind = Global;
  uint32_t a = 0;  ///< global slot / object id
  uint32_t b = 0;  ///< field index / element index

  friend bool operator==(const LocKey&, const LocKey&) = default;
  friend auto operator<=>(const LocKey&, const LocKey&) = default;
};

}  // namespace synat::interp

template <>
struct std::hash<synat::interp::LocKey> {
  size_t operator()(const synat::interp::LocKey& k) const noexcept {
    return (static_cast<size_t>(k.kind) << 60) ^
           (static_cast<size_t>(k.a) << 30) ^ k.b;
  }
};
