#pragma once

#include <cstddef>

// Portable fixed-width float SIMD wrappers for the alignment engine.
//
// The float kernel (wavefront.hpp) is written once against this interface,
// as a template over its vector type:
//
//   * With GCC/Clang vector extensions, VecF is VecExt<4>: 4 floats, the
//     SSE2/NEON register. On x86-64 the build also compiles VecF8 =
//     VecExt<8>, which the kernel runs only inside functions that carry
//     __attribute__((target("avx2"))), chosen once per process from the
//     CPU (engine::kernel_lanes()). No translation unit is compiled with
//     -mavx2, so nothing outside those functions can emit AVX code.
//   * Without vector extensions, or when the build defines
//     SALIGN_ENGINE_FORCE_SCALAR (the release-scalar lane), VecF aliases
//     ScalarF: 1 lane, plain float, and no other width is compiled.
//
// Every width performs IEEE single-precision adds/subs/maxes in the same
// per-cell operand order, so kernel results are bit-identical across lane
// widths; the differential tests pin each compiled width against the
// reference oracles. SALIGN_ENGINE_FORCE_SCALAR changes these types, so it
// is a PUBLIC compile definition of the salign library: every translation
// unit that includes this header must see the same VecF.
//
// VecExt<8> is also used, before inlining, in functions without the AVX2
// target. Every function that takes or returns a vector by value is
// therefore always_inline: a 32-byte vector passed between an AVX2 caller
// and a baseline callee would change the calling convention mid-call,
// and inlining removes the call (at -O0 as well). For the same reason the
// two sources that instantiate the 8-lane kernel build with -Wno-psabi
// (CMakeLists.txt): GCC's notes on those signatures are about calls that
// are never made.

#if defined(__GNUC__) && !defined(__clang_analyzer__) && \
    !defined(SALIGN_ENGINE_FORCE_SCALAR)
#define SALIGN_HAVE_VECTOR_EXT 1
#if defined(__x86_64__)
#define SALIGN_ENGINE_AVX2 1
#endif
#endif

// Inlined into every caller, whatever the optimization level.
#define SALIGN_SIMD_INLINE [[gnu::always_inline]] inline

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

/// The vector types of VecExt<kN>. (GCC drops a vector_size that depends
/// on a template parameter, so each width spells its own.) Unaligned is
/// Native at float alignment, for unaligned loads and stores: one
/// movups/vmovups each, where a memcpy into Native went through a stack
/// temporary at 8 lanes.
template <int kN>
struct VecExtTypes;
template <>
struct VecExtTypes<4> {
  typedef float Native __attribute__((vector_size(16)));
  typedef int Mask __attribute__((vector_size(16)));
  typedef float Unaligned
      __attribute__((vector_size(16), aligned(alignof(float)), may_alias));
};
template <>
struct VecExtTypes<8> {
  typedef float Native __attribute__((vector_size(32)));
  typedef int Mask __attribute__((vector_size(32)));
  typedef float Unaligned
      __attribute__((vector_size(32), aligned(alignof(float)), may_alias));
};

/// kN floats over GCC/Clang vector extensions. The compiler lowers each
/// operation for the target of the function it is inlined into: one
/// maxps/addps per operation at 4 lanes, one vmaxps/vaddps on ymm
/// registers at 8 lanes inside an AVX2 function.
template <int kN>
struct VecExt {
  static constexpr int kLanes = kN;
  using Native = typename VecExtTypes<kN>::Native;
  using Mask = typename VecExtTypes<kN>::Mask;
  using Unaligned = typename VecExtTypes<kN>::Unaligned;
  Native v;

  /// Through memory: GCC splits a vector constructor in a baseline
  /// function into lane inserts before the function can be inlined into an
  /// AVX2 one, while a load of kN copies becomes one (hoisted) broadcast.
  SALIGN_SIMD_INLINE static VecExt splat(float x) {
    float copies[kN];
    for (float& c : copies) c = x;
    return load(copies);
  }
  SALIGN_SIMD_INLINE static VecExt load(const float* p) {
    return {*reinterpret_cast<const Unaligned*>(p)};
  }
  SALIGN_SIMD_INLINE void store(float* p) const {
    *reinterpret_cast<Unaligned*>(p) = v;
  }

  SALIGN_SIMD_INLINE friend VecExt operator+(VecExt a, VecExt b) {
    return {a.v + b.v};
  }
  SALIGN_SIMD_INLINE friend VecExt operator-(VecExt a, VecExt b) {
    return {a.v - b.v};
  }

  SALIGN_SIMD_INLINE static VecExt max(VecExt a, VecExt b) {
    const Mask m = a.v > b.v;
    return {m ? a.v : b.v};
  }

  SALIGN_SIMD_INLINE float lane(int i) const { return v[i]; }
};

using VecF = VecExt<4>;

#ifdef SALIGN_ENGINE_AVX2
/// The 8-lane width, run only inside AVX2-target functions.
using VecF8 = VecExt<8>;
#endif

#else

// Scalar build: the kernels run one lane.
using VecF = ScalarF;

#endif  // SALIGN_HAVE_VECTOR_EXT

/// The widest float width compiled into this build; buffers the kernel
/// reads past their ends are padded for it.
#ifdef SALIGN_ENGINE_AVX2
inline constexpr int kMaxLanes = 8;
#else
inline constexpr int kMaxLanes = VecF::kLanes;
#endif

template <typename V>
SALIGN_SIMD_INLINE V max3(V a, V b, V c) {
  return V::max(V::max(a, b), c);
}

}  // namespace salign::align::engine
