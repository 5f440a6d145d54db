// Small numeric helpers shared by the quantization and kernel code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace qserve {

// Round-half-away-from-zero, the ⌊x⌉ used throughout the paper's equations.
inline int round_half_away(float x) {
  return static_cast<int>(x >= 0.0f ? std::floor(x + 0.5f)
                                    : std::ceil(x - 0.5f));
}

inline int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

inline int64_t round_up(int64_t a, int64_t b) { return ceil_div(a, b) * b; }

template <typename T>
inline T clamp(T v, T lo, T hi) {
  return std::min(std::max(v, lo), hi);
}

inline int8_t clamp_i8(int v) {
  return static_cast<int8_t>(clamp(v, -128, 127));
}

inline uint8_t clamp_u4(int v) { return static_cast<uint8_t>(clamp(v, 0, 15)); }

// Grows `buf` so that n floats fit from a 64-byte (cache-line) boundary on,
// and returns that start. A vector's own storage is only 16-byte aligned, and
// a SIMD tile whose rows straddle cache lines splits every 64-byte load.
inline float* cache_aligned(std::vector<float>& buf, int64_t n) {
  constexpr int64_t kLineFloats = 64 / sizeof(float);
  if (static_cast<int64_t>(buf.size()) < n + kLineFloats - 1)
    buf.resize(static_cast<size_t>(n + kLineFloats - 1));
  const auto addr = reinterpret_cast<uintptr_t>(buf.data());
  return buf.data() + ((64 - addr % 64) % 64) / sizeof(float);
}

inline bool is_pow2(int64_t x) { return x > 0 && (x & (x - 1)) == 0; }

inline int ilog2(int64_t x) {
  int l = 0;
  while ((int64_t(1) << (l + 1)) <= x) ++l;
  return l;
}

// Fixed pairwise (recursive-halving) summation tree over v[0..n). The split
// point is the largest power of two strictly below n, so the tree shape is a
// function of n alone. Two properties the tensor-parallel all-reduce relies
// on:
//  - For power-of-two n, the partial sums of any even partition into
//    power-of-two-aligned blocks combine (again pairwise) into bitwise the
//    same result as summing all n leaves in one tree — shard count does not
//    change the bits.
//  - For integer T the sum is exact, so ANY grouping matches; the fixed tree
//    is still used so float and integer reductions share one code path.
template <typename T>
inline T pairwise_tree_sum(const T* v, int64_t n) {
  if (n <= 0) return T(0);
  if (n == 1) return v[0];
  if (n == 2) return static_cast<T>(v[0] + v[1]);
  int64_t half = 1;
  while (half * 2 < n) half *= 2;  // largest power of two < n
  return static_cast<T>(pairwise_tree_sum(v, half) +
                        pairwise_tree_sum(v + half, n - half));
}

// Numerically stable softmax over the concatenated row a[0..na) ++
// b[0..nb), in place: the max, the serial exp-sum and the scaling visit the
// elements in concatenated order, so the result is bitwise softmax_inplace
// over one contiguous copy of the row. A sliding-window attention row (sink
// scores, then its trailing window) uses this without compacting the two.
inline void softmax_inplace2(float* a, int na, float* b, int nb) {
  float m = na > 0 ? a[0] : b[0];
  for (int i = 1; i < na; ++i) m = std::max(m, a[i]);
  for (int i = na > 0 ? 0 : 1; i < nb; ++i) m = std::max(m, b[i]);
  float sum = 0.0f;
  for (int i = 0; i < na; ++i) {
    a[i] = std::exp(a[i] - m);
    sum += a[i];
  }
  for (int i = 0; i < nb; ++i) {
    b[i] = std::exp(b[i] - m);
    sum += b[i];
  }
  const float inv = 1.0f / sum;
  for (int i = 0; i < na; ++i) a[i] *= inv;
  for (int i = 0; i < nb; ++i) b[i] *= inv;
}

// Numerically stable softmax over a contiguous row, in place.
inline void softmax_inplace(float* x, int n) {
  softmax_inplace2(x, n, nullptr, 0);
}

}  // namespace qserve
