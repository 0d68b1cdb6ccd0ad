// Runtime kernel detection and dispatch-table selection (see simd.h).
//
// Detection runs once (first use) and caches: compiled-in kernel sets are
// declared by the NB_SIMD_HAVE_* macros CMake defines per platform, and the
// CPU is probed with __builtin_cpu_supports. AVX-512 requires the full
// feature set the kernels use (F/BW/VL/DQ + VPOPCNTDQ), not just
// avx512f — Skylake-SP-era parts without VPOPCNTQ resolve to AVX2.
#include "common/simd/simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace nb::simd {

namespace detail {
SimdOps make_scalar_ops();
#if defined(NB_SIMD_HAVE_AVX2)
SimdOps make_avx2_ops();
#endif
#if defined(NB_SIMD_HAVE_AVX512)
SimdOps make_avx512_ops();
#endif
}  // namespace detail

namespace {

// Unused when -DNB_SIMD=OFF compiles every vector table out.
[[maybe_unused]] bool cpu_has_avx2() noexcept {
#if defined(NB_SIMD_HAVE_AVX2) && (defined(__x86_64__) || defined(_M_X64))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

[[maybe_unused]] bool cpu_has_avx512() noexcept {
#if defined(NB_SIMD_HAVE_AVX512) && (defined(__x86_64__) || defined(_M_X64))
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512bw") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0 &&
           __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
    return false;
#endif
}

struct Tables {
    SimdOps scalar;
#if defined(NB_SIMD_HAVE_AVX2)
    SimdOps avx2;
#endif
#if defined(NB_SIMD_HAVE_AVX512)
    SimdOps avx512;
#endif
    bool avx2_ok = false;
    bool avx512_ok = false;
    Kernel best = Kernel::scalar;
    Kernel env_kernel = Kernel::auto_best;  ///< NB_SIMD_KERNEL, parsed once

    Tables() : scalar(detail::make_scalar_ops()) {
#if defined(NB_SIMD_HAVE_AVX2)
        avx2 = detail::make_avx2_ops();
        avx2_ok = cpu_has_avx2();
#endif
#if defined(NB_SIMD_HAVE_AVX512)
        avx512 = detail::make_avx512_ops();
        avx512_ok = cpu_has_avx512();
#endif
        best = avx512_ok ? Kernel::avx512 : (avx2_ok ? Kernel::avx2 : Kernel::scalar);

        if (const char* env = std::getenv("NB_SIMD_KERNEL"); env != nullptr && *env != '\0') {
            bool ok = false;
            const Kernel parsed = parse_kernel(env, &ok);
            if (!ok) {
                std::fprintf(stderr,
                             "[nb::simd] NB_SIMD_KERNEL=%s not recognized "
                             "(expected scalar|avx2|avx512|auto); using auto\n",
                             env);
            } else if (parsed != Kernel::auto_best && !supported(parsed)) {
                std::fprintf(stderr,
                             "[nb::simd] NB_SIMD_KERNEL=%s unavailable on this "
                             "build/CPU; falling back to %s\n",
                             env, kernel_name(best));
            } else {
                env_kernel = parsed;
            }
        }
    }

    bool supported(Kernel k) const noexcept {
        switch (k) {
            case Kernel::scalar:
            case Kernel::auto_best:
                return true;
            case Kernel::avx2:
                return avx2_ok;
            case Kernel::avx512:
                return avx512_ok;
        }
        return false;
    }

    const SimdOps& table(Kernel k) const noexcept {
        switch (k) {
#if defined(NB_SIMD_HAVE_AVX2)
            case Kernel::avx2:
                return avx2;
#endif
#if defined(NB_SIMD_HAVE_AVX512)
            case Kernel::avx512:
                return avx512;
#endif
            default:
                return scalar;
        }
    }
};

const Tables& tables() noexcept {
    // Thread-safe one-time init; no destructor ordering issues (POD-ish).
    static const Tables t;
    return t;
}

}  // namespace

bool kernel_supported(Kernel kernel) noexcept { return tables().supported(kernel); }

Kernel best_kernel() noexcept { return tables().best; }

Kernel resolve_kernel(Kernel requested) noexcept {
    const Tables& t = tables();
    if (requested == Kernel::auto_best) {
        requested = t.env_kernel;
    }
    if (requested == Kernel::auto_best || !t.supported(requested)) {
        return t.best;
    }
    return requested;
}

const SimdOps& ops(Kernel requested) noexcept {
    return tables().table(resolve_kernel(requested));
}

const char* kernel_name(Kernel kernel) noexcept {
    switch (kernel) {
        case Kernel::scalar:
            return "scalar";
        case Kernel::avx2:
            return "avx2";
        case Kernel::avx512:
            return "avx512";
        case Kernel::auto_best:
            return "auto";
    }
    return "unknown";
}

Kernel parse_kernel(const char* name, bool* ok) noexcept {
    bool parsed = true;
    Kernel kernel = Kernel::auto_best;
    if (name == nullptr) {
        parsed = false;
    } else if (std::strcmp(name, "scalar") == 0) {
        kernel = Kernel::scalar;
    } else if (std::strcmp(name, "avx2") == 0) {
        kernel = Kernel::avx2;
    } else if (std::strcmp(name, "avx512") == 0) {
        kernel = Kernel::avx512;
    } else if (std::strcmp(name, "auto") != 0) {
        parsed = false;
    }
    if (ok != nullptr) {
        *ok = parsed;
    }
    return kernel;
}

}  // namespace nb::simd
