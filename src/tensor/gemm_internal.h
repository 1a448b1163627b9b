// Epilogue passes shared by the fp32 GEMM (gemm.cpp) and the int8 driver
// (gemm_quant.cpp). Internal to src/tensor — not part of the public kernel
// API.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/gemm.h"

namespace fedcleanse::tensor::detail {

// Post-pass epilogue over finished rows [i0, i0+mc) × cols [jc, jc+nc):
// column bias then ReLU, both while the tile range is still cache-hot.
// Inactive rows hold caller-owned exact zeros and are left untouched.
inline void epilogue_cols(float* c, int ldc, int i0, int mc, int jc, int nc,
                          const std::uint8_t* row_active, const GemmEpilogue& epi) {
  if (epi.col_bias == nullptr && !epi.relu) return;
  const float* cb = epi.col_bias != nullptr ? epi.col_bias + jc : nullptr;
  for (int i = 0; i < mc; ++i) {
    if (row_active != nullptr && row_active[i0 + i] == 0) continue;
    float* crow = c + static_cast<std::size_t>(i0 + i) * ldc + jc;
    if (cb != nullptr) {
      for (int j = 0; j < nc; ++j) crow[j] += cb[j];
    }
    if (epi.relu) {
      // `v < 0 ? 0 : v`, not max(): preserves -0.0f exactly like nn::ReLU.
      for (int j = 0; j < nc; ++j) crow[j] = crow[j] < 0.0f ? 0.0f : crow[j];
    }
  }
}

// Row softmax over complete rows [i0, i0+mc), replicating ops.cpp's
// softmax_rows element for element (same max sweep, same accumulation
// order for the denominator) so the fused head is bit-identical.
inline void epilogue_softmax(float* c, int ldc, int i0, int mc, int n,
                             const std::uint8_t* row_active) {
  for (int i = 0; i < mc; ++i) {
    if (row_active != nullptr && row_active[i0 + i] == 0) continue;
    float* crow = c + static_cast<std::size_t>(i0 + i) * ldc;
    float mx = crow[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, crow[j]);
    float denom = 0.0f;
    for (int j = 0; j < n; ++j) {
      crow[j] = std::exp(crow[j] - mx);
      denom += crow[j];
    }
    for (int j = 0; j < n; ++j) crow[j] /= denom;
  }
}

}  // namespace fedcleanse::tensor::detail
