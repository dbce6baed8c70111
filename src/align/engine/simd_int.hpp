#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "align/engine/simd.hpp"

// Portable fixed-width *integer* SIMD wrappers for the striped score
// kernels, mirroring the float wrappers in simd.hpp:
//
//   * VecI8 / VecI16 — GCC/Clang vector extensions, 16 bytes (the native
//     SSE/NEON register width; wider vectors measured slower here).
//   * ScalarI8 / ScalarI16 — 1 lane. VecI8/VecI16 alias them wherever
//     simd.hpp leaves SALIGN_HAVE_VECTOR_EXT undefined (no vector
//     extensions, or SALIGN_ENGINE_FORCE_SCALAR), so the release-scalar
//     lane runs the striped kernels one lane wide.
//
// Domains: each trait carries a logical<->storage bias. The int8 tier
// stores logical values v as unsigned bytes v + 128 (Farrar's biased
// representation): unsigned byte max/min are single instructions on
// baseline SSE2 (pmaxub/pminub), where signed byte max would be emulated
// with a 4-op compare/blend chain. The int16 tier stores values unbiased
// (pmaxsw is native). The bias is order-preserving and additive deltas
// (substitution scores, gap penalties) wrap identically in both domains,
// so the kernels are written once against the logical interface:
// encode()/decode() convert values at the edges, encode_delta() reinterprets
// a signed delta as a storage-type bit pattern.
//
// The striped kernels never rely on hardware saturating instructions:
// values are kept inside "rail" bounds by explicit max/min clamps sized so
// that no add or subtract can leave the storage range (see striped.cpp).

namespace salign::align::engine {

template <typename S, int kBiasV>
struct ScalarIntT {
  using Elem = S;
  static constexpr int kLanes = 1;
  static constexpr int kBias = kBiasV;
  S v;

  static Elem encode(int logical) { return static_cast<Elem>(logical + kBias); }
  static int decode(Elem e) { return static_cast<int>(e) - kBias; }
  static Elem encode_delta(int d) { return static_cast<Elem>(d); }
  static int decode_delta(Elem e) {
    return static_cast<int>(static_cast<std::make_signed_t<Elem>>(e));
  }

  static ScalarIntT splat(Elem x) { return {x}; }
  static ScalarIntT load(const Elem* p) { return {*p}; }
  void store(Elem* p) const { *p = v; }

  friend ScalarIntT operator+(ScalarIntT a, ScalarIntT b) {
    return {static_cast<Elem>(a.v + b.v)};
  }
  friend ScalarIntT operator-(ScalarIntT a, ScalarIntT b) {
    return {static_cast<Elem>(a.v - b.v)};
  }
  static ScalarIntT max(ScalarIntT a, ScalarIntT b) {
    return {a.v > b.v ? a.v : b.v};
  }
  static ScalarIntT min(ScalarIntT a, ScalarIntT b) {
    return {a.v < b.v ? a.v : b.v};
  }
  Elem lane(int) const { return v; }
};

using ScalarI8 = ScalarIntT<std::uint8_t, 128>;
using ScalarI16 = ScalarIntT<std::int16_t, 0>;

#ifdef SALIGN_HAVE_VECTOR_EXT

template <typename S, int kBiasV>
struct VecIntT {
  using Elem = S;
  static constexpr int kLanes = 16 / static_cast<int>(sizeof(S));
  static constexpr int kBias = kBiasV;
  typedef S Native __attribute__((vector_size(16), aligned(alignof(S))));
  Native v;

  static Elem encode(int logical) { return static_cast<Elem>(logical + kBias); }
  static int decode(Elem e) { return static_cast<int>(e) - kBias; }
  static Elem encode_delta(int d) { return static_cast<Elem>(d); }
  static int decode_delta(Elem e) {
    return static_cast<int>(static_cast<std::make_signed_t<Elem>>(e));
  }

  static VecIntT splat(Elem x) {
    return {static_cast<Elem>(x) - Native{}};
  }
  static VecIntT load(const Elem* p) {
    VecIntT r;
    __builtin_memcpy(&r.v, p, sizeof(Native));  // unaligned load
    return r;
  }
  void store(Elem* p) const { __builtin_memcpy(p, &v, sizeof(Native)); }

  friend VecIntT operator+(VecIntT a, VecIntT b) { return {a.v + b.v}; }
  friend VecIntT operator-(VecIntT a, VecIntT b) { return {a.v - b.v}; }
  static VecIntT max(VecIntT a, VecIntT b) { return {a.v > b.v ? a.v : b.v}; }
  static VecIntT min(VecIntT a, VecIntT b) { return {a.v < b.v ? a.v : b.v}; }

  Elem lane(int i) const { return v[i]; }
};

using VecI8 = VecIntT<std::uint8_t, 128>;
using VecI16 = VecIntT<std::int16_t, 0>;

#else

// Scalar build: alias the 1-lane types, exactly as simd.hpp does for floats.
using VecI8 = ScalarI8;
using VecI16 = ScalarI16;

#endif  // SALIGN_HAVE_VECTOR_EXT

}  // namespace salign::align::engine
