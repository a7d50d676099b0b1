/**
 * @file
 * The public products and the run-time choice between gemm.cc's
 * builds. Compiled once, for the default target: nothing here may
 * run an instruction the host lacks.
 */

#include "linalg/gemm.h"
#include "linalg/isa.h"

namespace dadu::linalg {

const GemmSet *
v4Gemm(const char **why)
{
    if (!runsV4(why))
        return nullptr;
#ifdef DADU_HAVE_V4
    return &v4::gemmKernels();
#else
    return nullptr; // not reached: runsV4 is false without the build
#endif
}

const GemmSet &
activeGemm()
{
    static const GemmSet &active = v4Gemm() ? *v4Gemm() : base::gemmKernels();
    return active;
}

void
gemmAccumulate(int m, int n, int k, const double *a, int lda,
               const double *b, int ldb, double *c, int ldc)
{
    activeGemm().accumulate(m, n, k, a, lda, b, ldb, c, ldc);
}

void
gemmTransAccumulate(int m, int n, int k, const double *a, int lda,
                    const double *b, int ldb, double *c, int ldc)
{
    activeGemm().transAccumulate(m, n, k, a, lda, b, ldb, c, ldc);
}

} // namespace dadu::linalg
