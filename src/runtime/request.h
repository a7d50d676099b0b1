/**
 * @file
 * Runtime-level request/completion types of the unified dynamics
 * runtime (the accelerator's function-level interface of Table I,
 * lifted to a backend-agnostic layer).
 *
 * These are the canonical task types: `accel::TaskInput` /
 * `accel::TaskOutput` / `accel::FunctionType` are aliases of the
 * types defined here, so a request built for the runtime can be
 * handed to the cycle-accurate simulator (or any other backend)
 * without conversion or copying.
 */

#ifndef DADU_RUNTIME_REQUEST_H
#define DADU_RUNTIME_REQUEST_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrixx.h"
#include "linalg/vec.h"

namespace dadu::runtime {

using linalg::MatrixX;
using linalg::Vec6;
using linalg::VectorX;

/** Rigid body dynamics functions (Table I). */
enum class FunctionType
{
    ID,       ///< τ = ID(q, q̇, q̈, f_ext)
    FD,       ///< q̈ = FD(q, q̇, τ, f_ext)
    M,        ///< mass matrix M(q)
    Minv,     ///< M⁻¹(q)
    DeltaID,  ///< ∂uτ = ∆ID(q, q̇, q̈, f_ext)
    DeltaFD,  ///< ∂u q̈ = ∆FD(q, q̇, τ, f_ext)
    DeltaiFD, ///< ∂u q̈ = ∆iFD(q, q̇, q̈, M⁻¹, f_ext)
};

/** Human-readable function name as used in the paper's figures. */
const char *functionName(FunctionType fn);

/** Unified task input (the Decode Module payload of the paper). */
struct DynamicsRequest
{
    VectorX q;              ///< configuration (nq)
    VectorX qd;             ///< velocity (nv)
    VectorX qdd_or_tau;     ///< q̈ (ID/∆ID/∆iFD) or τ (FD/∆FD)
    std::vector<Vec6> fext; ///< optional external forces (per link)
    MatrixX minv;           ///< M⁻¹ input, ∆iFD only

    /**
     * Column-sparsity gating (∆ID/∆FD/∆iFD only; other functions
     * ignore it; see runtime/mask.h). `seed_cols` is the mask: empty
     * means dense, otherwise exactly the tangent-space columns for
     * which derivative output is requested. Out-of-range or
     * duplicate seed indices are rejected at submit with
     * SubmitStatus::InvalidRequest. Dead columns are exactly 0.0 in
     * the result; live columns are bitwise identical to the dense
     * path.
     */
    std::vector<int> seed_cols;
};

/** Unified task output (the Encode Module payload of the paper). */
struct DynamicsResult
{
    VectorX tau;      ///< ID/∆ID
    VectorX qdd;      ///< FD/∆FD
    MatrixX m;        ///< M
    MatrixX minv;     ///< Minv (also optional ∆FD byproduct)
    MatrixX dtau_dq;  ///< ∆ID
    MatrixX dtau_dqd; ///< ∆ID
    MatrixX dqdd_dq;  ///< ∆FD/∆iFD
    MatrixX dqdd_dqd; ///< ∆FD/∆iFD
};

/**
 * Outcome of one batch submission — the error channel of the backend
 * interface. The pre-fault-tolerance contract was that submit()
 * cannot fail; backends that can (a wedged accelerator, an injected
 * fault) report it here instead of aborting, and the serving layer
 * decides what to do: bounded retry for TransientFailure, lane
 * quarantine + failover for BackendDown.
 */
enum class SubmitStatus
{
    Ok,               ///< batch executed, results valid
    TransientFailure, ///< batch did not execute; a retry may succeed
    BackendDown,      ///< backend permanently dead; do not resubmit
    InvalidRequest,   ///< malformed request (bad seed set); never retried
};

/**
 * Timing and occupancy of one submitted batch. `total_us` is the
 * batch makespan in *backend time*: measured wall-clock for the CPU
 * backend, modeled microseconds (simulated or estimated cycles over
 * the configured clock) for the accelerator paths. The FIFO/cycle
 * fields are zero for backends without a cycle notion.
 */
struct BatchStats
{
    std::uint64_t cycles = 0;        ///< makespan in cycles (accel only)
    double total_us = 0.0;           ///< makespan in microseconds
    double throughput_mtasks = 0.0;  ///< million tasks per second
    double latency_us = 0.0;         ///< mean single-task latency
    std::size_t fifo_high_water = 0; ///< deepest FIFO occupancy
    std::uint64_t fifo_stalls = 0;   ///< full-FIFO push rejections
    SubmitStatus status = SubmitStatus::Ok; ///< mirrors submit()'s return
};

} // namespace dadu::runtime

#endif // DADU_RUNTIME_REQUEST_H
