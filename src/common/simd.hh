/**
 * @file
 * SIMD dispatch layer for the imaging and solver hot loops.
 *
 * The vector kernels (TV interior rows, the MI histogram index
 * computation, SEM LUT shading, and the batched transient solver's
 * lane kernels — MOSFET stamping, the replayed LU factor/solve, and
 * the Newton state update in src/circuit) are compiled as AVX2
 * function multiversions next to their portable scalar forms and
 * selected at runtime.  The selection is:
 *
 *  - compile-time: AVX2 bodies exist only when the compiler supports
 *    per-function target attributes on x86-64 (HIFI_SIMD_AVX2_COMPILED);
 *    elsewhere only the scalar forms are built;
 *  - runtime: the CPU must actually report AVX2
 *    (__builtin_cpu_supports), checked once and cached;
 *  - environment: HIFI_SIMD=off|0|scalar forces the scalar paths, the
 *    escape hatch for debugging or for pinning a run to the portable
 *    code (any other value, or unset, means "best available").
 *
 * Every vector kernel in this codebase preserves the scalar kernel's
 * operation order per output element (element-wise IEEE add/sub/mul/
 * div/sqrt are exactly rounded, integer histogram counts are exact
 * under any accumulation order, and no FMA contraction is introduced),
 * so results are bitwise identical on either path — asserted by
 * tests/test_image.cc, tests/test_fab_scope.cc and tests/test_circuit.cc.
 */

#ifndef HIFI_COMMON_SIMD_HH
#define HIFI_COMMON_SIMD_HH

// Compile-time capability: GCC/Clang on x86-64 can compile AVX2
// bodies per-function via __attribute__((target("avx2"))) without
// raising the baseline of the whole translation unit.
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
#define HIFI_SIMD_AVX2_COMPILED 1
#define HIFI_AVX2_TARGET __attribute__((target("avx2")))
#else
#define HIFI_SIMD_AVX2_COMPILED 0
#define HIFI_AVX2_TARGET
#endif

namespace hifi
{
namespace common
{
namespace simd
{

/// Instruction-set level a kernel call site may dispatch to.
enum class Isa
{
    Scalar,
    Avx2,
};

/**
 * The ISA the dispatch layer currently selects: the best level that is
 * compiled in AND reported by the CPU AND not disabled via HIFI_SIMD
 * or an active ScopedForceScalar.  Cheap enough for per-row dispatch
 * (one cached value plus one relaxed atomic load).
 */
Isa activeIsa();

/// Convenience: activeIsa() == Isa::Avx2.
bool avx2();

/// "avx2" or "scalar", for bench/telemetry labels.
const char *isaName(Isa isa);

/**
 * Force the scalar paths for the lifetime of this object (nestable,
 * thread-safe).  The SIMD-vs-scalar equivalence tests run every kernel
 * under both settings in one process and assert bitwise equality.
 */
class ScopedForceScalar
{
  public:
    ScopedForceScalar();
    ~ScopedForceScalar();
    ScopedForceScalar(const ScopedForceScalar &) = delete;
    ScopedForceScalar &operator=(const ScopedForceScalar &) = delete;
};

} // namespace simd
} // namespace common
} // namespace hifi

#endif // HIFI_COMMON_SIMD_HH
