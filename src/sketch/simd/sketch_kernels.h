// Compatibility shim for perfbench's detail line, which prints the
// name of the sketch kernel set. The sketch and routing loops have one
// scalar implementation each, so the name is always "scalar". Nothing in
// src/, bench/, tools/ or tests/ includes this header.
#pragma once

namespace skewless::simd {

struct SketchKernels {
  const char* name;
};

inline const SketchKernels& active_kernels() {
  static constexpr SketchKernels kScalar{"scalar"};
  return kScalar;
}

}  // namespace skewless::simd
