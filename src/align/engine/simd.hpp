#pragma once

#include <cstddef>

// Portable fixed-width float SIMD wrappers for the alignment engine.
//
// Every kernel is written once against this interface and compiled once,
// over VecF:
//
//   * With GCC/Clang vector extensions, VecF is a native vector of
//     SALIGN_ENGINE_LANES floats (8 under AVX, 4 under SSE/NEON).
//   * Without them, or when the build defines SALIGN_ENGINE_FORCE_SCALAR
//     (the release-scalar lane), VecF aliases ScalarF: 1 lane, plain float.
//
// Both perform IEEE single-precision adds/subs/maxes in the same per-cell
// operand order, so kernel results are bit-identical across lane widths;
// the differential tests pin both widths against the reference oracles, one
// width per build. SALIGN_ENGINE_FORCE_SCALAR changes these types, so it is
// a PUBLIC compile definition of the salign library: every translation
// unit that includes this header must see the same VecF.

#if defined(__GNUC__) && !defined(__clang_analyzer__) && \
    !defined(SALIGN_ENGINE_FORCE_SCALAR)
#define SALIGN_HAVE_VECTOR_EXT 1
#endif

namespace salign::align::engine {

/// 1 lane, plain float: VecF in scalar builds.
struct ScalarF {
  static constexpr int kLanes = 1;
  float v;

  static ScalarF splat(float x) { return {x}; }
  static ScalarF load(const float* p) { return {*p}; }
  void store(float* p) const { *p = v; }

  friend ScalarF operator+(ScalarF a, ScalarF b) { return {a.v + b.v}; }
  friend ScalarF operator-(ScalarF a, ScalarF b) { return {a.v - b.v}; }

  static ScalarF max(ScalarF a, ScalarF b) { return {a.v > b.v ? a.v : b.v}; }

  float lane(int) const { return v; }
};

#ifdef SALIGN_HAVE_VECTOR_EXT

// Lane count follows what the target ISA can blend in one instruction: GCC
// lowers the vector compare-select to a single maxps/vmaxps only at (or
// below) the native register width — oversized vectors get scalarized, which
// is far slower than not vectorizing at all.
#if defined(__AVX__)
#define SALIGN_ENGINE_LANES 8
#else
#define SALIGN_ENGINE_LANES 4
#endif

/// Fixed-width float vector over GCC/Clang vector extensions.
struct VecF {
  static constexpr int kLanes = SALIGN_ENGINE_LANES;
  typedef float Native __attribute__((vector_size(kLanes * sizeof(float)),
                                      aligned(alignof(float))));
  typedef int Mask __attribute__((vector_size(kLanes * sizeof(int)),
                                  aligned(alignof(float))));
  Native v;

  static VecF splat(float x) { return {x - Native{}}; }
  static VecF load(const float* p) {
    VecF r;
    __builtin_memcpy(&r.v, p, sizeof(Native));  // unaligned load
    return r;
  }
  void store(float* p) const { __builtin_memcpy(p, &v, sizeof(Native)); }

  friend VecF operator+(VecF a, VecF b) { return {a.v + b.v}; }
  friend VecF operator-(VecF a, VecF b) { return {a.v - b.v}; }

  static VecF max(VecF a, VecF b) {
    const Mask m = a.v > b.v;
    return {m ? a.v : b.v};
  }

  float lane(int i) const { return v[i]; }
};

#else

// Scalar build: the kernels run one lane.
using VecF = ScalarF;

#endif  // SALIGN_HAVE_VECTOR_EXT

template <typename V>
inline V max3(V a, V b, V c) {
  return V::max(V::max(a, b), c);
}

}  // namespace salign::align::engine
