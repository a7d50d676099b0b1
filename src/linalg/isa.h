/**
 * @file
 * The one run-time choice of instruction-set build.
 *
 * The SoA lane kernels (algorithms/soa/kernels.cc) and the dense
 * products (linalg/gemm.cc) are each compiled a second time for
 * x86-64-v4 (AVX-512), into the object library dadu_v4. Both
 * dispatchers ask this one probe whether to run that build, so a
 * process never mixes builds and never probes the CPU twice.
 */

#ifndef DADU_LINALG_ISA_H
#define DADU_LINALG_ISA_H

namespace dadu::linalg {

/**
 * True when the x86-64-v4 builds were compiled into this library and
 * this CPU runs them; decided once per process. When false, @p why
 * (if given) names the reason.
 */
bool runsV4(const char **why = nullptr);

} // namespace dadu::linalg

#endif // DADU_LINALG_ISA_H
