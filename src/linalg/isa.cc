#include "linalg/isa.h"

namespace dadu::linalg {

bool
runsV4(const char **why)
{
#ifdef DADU_HAVE_V4
    static const bool host_ok = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("x86-64-v4") != 0;
    }();
    if (host_ok)
        return true;
    if (why)
        *why = "this CPU does not support x86-64-v4 (AVX-512)";
#else
    if (why)
        *why = "the compiler did not build the x86-64-v4 kernels";
#endif
    return false;
}

} // namespace dadu::linalg
