// rdcn: the hot-kernel library — small, portable SIMD primitives behind
// runtime dispatch.
//
// The serve pipeline's innermost loops are three tiny, branch-free array
// kernels over BMA's SoA rack rows and the distance matrix:
//
//   argmin_u64_pair   BMA's eviction scan: least (usage, admitted_at) with
//                     index capture (lexicographic, lowest index on full
//                     ties, so results never depend on lane order),
//   find_u64          membership scan over BMA's rack-row keys (first
//                     occurrence),
//   gather_u16 /      batch-path distance gathers over the DistanceMatrix
//   gather_sum_u16    u16 storage (32-bit gathers; see the padding contract
//                     below).
//
// Matching membership is not a kernel: core::BMatching answers it from an
// adjacency bitmap with one load.
//
// Each kernel has a scalar reference implementation (namespace simd::scalar,
// always compiled, the semantic contract) plus SSE4.2, AVX2, and (for the
// latency-critical argmin) AVX-512 variants selected ONCE at startup by
// runtime CPUID dispatch — the library is built without -mavx2 so one
// binary runs everywhere; vector code is gated behind per-function target
// attributes.  Setting the environment variable
// RDCN_FORCE_SCALAR_KERNELS (to anything but "0") pins the dispatch to the
// scalar reference; set_force_scalar() flips it programmatically (tests and
// perf_gate measure both modes in one process).
//
// Every vector variant is bit-identical to its scalar reference on every
// input (pinned by tests/simd_kernel_test.cpp on fuzzed rows, ties and
// empty/short rows included), so callers may treat dispatch as invisible:
// ledgers cannot depend on the selected ISA.
//
// Value-range contract: argmin_u64_pair compares with *signed* 64-bit SIMD
// compares (AVX2 has no unsigned epi64 compare), so inputs must stay below
// 2^63.  Usage counters and admission clock ticks are bounded by the trace
// length — checked by RDCN_DCHECK in the scalar reference.
//
// Gather contract: gather kernels issue 32-bit loads at base + 2*idx, so
// `base` must be readable for 2 bytes past the highest indexed element.
// net::DistanceMatrix pads its storage accordingly (see
// DistanceMatrix::data()); other callers must over-allocate by one element.
// Index values must stay below 2^31: the AVX2 gather interprets them as
// signed 32-bit offsets (callers with larger index spaces — a distance
// matrix needs ~46k racks to get there — must use direct lookups instead).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"

namespace rdcn::simd {

/// Index sentinel for "not found" / "empty input".
inline constexpr std::size_t kNpos = ~std::size_t{0};

/// Instruction-set level the dispatcher resolved to.
enum class Isa { kScalar, kSse42, kAvx2, kAvx512 };

/// The level the dispatched kernels actually run at (after the
/// RDCN_FORCE_SCALAR_KERNELS override and any set_force_scalar call).
Isa active_isa() noexcept;

/// The best level this CPU supports (ignores the scalar override).
Isa detected_isa() noexcept;

const char* isa_name(Isa isa) noexcept;

/// True when dispatch is pinned to the scalar reference (env var or hook).
bool force_scalar() noexcept;

/// Programmatic override of RDCN_FORCE_SCALAR_KERNELS: `true` pins the
/// dispatch to the scalar reference, `false` restores the detected ISA.
/// Test/bench hook — not meant for concurrent flipping while kernels run.
void set_force_scalar(bool force) noexcept;

// ---------------------------------------------------------------------------
// Scalar reference implementations — the semantic contract of every kernel.
// Always available (equivalence tests and microbenches call them directly).
// ---------------------------------------------------------------------------
namespace scalar {

/// Index of the lexicographically least (primary[i], secondary[i], i):
/// smallest primary, ties by smallest secondary, full ties by lowest index.
/// kNpos when n == 0.  Inputs must be < 2^63 (see header contract).
std::size_t argmin_u64_pair(const std::uint64_t* primary,
                            const std::uint64_t* secondary,
                            std::size_t n) noexcept;

/// First index with keys[i] == needle; kNpos when absent.
std::size_t find_u64(const std::uint64_t* keys, std::size_t n,
                     std::uint64_t needle) noexcept;

/// Sum of base[idx[i]] over i < n (u16 loads, u64 accumulation).
std::uint64_t gather_sum_u16(const std::uint16_t* base,
                             const std::uint32_t* idx,
                             std::size_t n) noexcept;

/// out[i] = base[idx[i]] for i < n.
void gather_u16(const std::uint16_t* base, const std::uint32_t* idx,
                std::size_t n, std::uint16_t* out) noexcept;

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched entry points.  One relaxed atomic load selects the kernel
// table; rows short enough that vector setup cannot pay for itself take the
// inline scalar fast path below without touching the table.
// ---------------------------------------------------------------------------
namespace detail {

struct KernelTable {
  std::size_t (*argmin_u64_pair)(const std::uint64_t*, const std::uint64_t*,
                                 std::size_t) noexcept;
  std::size_t (*find_u64)(const std::uint64_t*, std::size_t,
                          std::uint64_t) noexcept;
  std::uint64_t (*gather_sum_u16)(const std::uint16_t*, const std::uint32_t*,
                                  std::size_t) noexcept;
  void (*gather_u16)(const std::uint16_t*, const std::uint32_t*, std::size_t,
                     std::uint16_t*) noexcept;
  Isa isa;
};

/// The active table (never null after first use).
const KernelTable* active_kernels() noexcept;

}  // namespace detail

inline std::size_t argmin_u64_pair(const std::uint64_t* primary,
                                   const std::uint64_t* secondary,
                                   std::size_t n) noexcept {
  // A 4-lane vector pass cannot beat four branchless compares; keep the
  // smallest rows (b <= 4 in the paper's low range) off the dispatch table.
  if (n <= 4) return scalar::argmin_u64_pair(primary, secondary, n);
  return detail::active_kernels()->argmin_u64_pair(primary, secondary, n);
}

inline std::size_t find_u64(const std::uint64_t* keys, std::size_t n,
                            std::uint64_t needle) noexcept {
  if (n <= 4) return scalar::find_u64(keys, n, needle);
  return detail::active_kernels()->find_u64(keys, n, needle);
}

inline std::uint64_t gather_sum_u16(const std::uint16_t* base,
                                    const std::uint32_t* idx,
                                    std::size_t n) noexcept {
  if (n <= 8) return scalar::gather_sum_u16(base, idx, n);
  return detail::active_kernels()->gather_sum_u16(base, idx, n);
}

inline void gather_u16(const std::uint16_t* base, const std::uint32_t* idx,
                       std::size_t n, std::uint16_t* out) noexcept {
  if (n <= 8) return scalar::gather_u16(base, idx, n, out);
  return detail::active_kernels()->gather_u16(base, idx, n, out);
}

}  // namespace rdcn::simd
