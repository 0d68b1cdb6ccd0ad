// The always-compiled portable kernel set: the generic implementations
// built with the project's baseline flags. This is the fallback every
// dispatch decision can land on, and the reference the ISA variants are
// property-tested against.
#include "common/simd/kernels_inl.h"

namespace nb::simd::detail {

SimdOps make_scalar_ops() {
    return SimdOps{
        "scalar",           generic_and_not_count, generic_and_not_count_below,
        generic_hamming,    generic_hamming_all,   generic_bitslice_pass,
        generic_gather_positions,
    };
}

}  // namespace nb::simd::detail
