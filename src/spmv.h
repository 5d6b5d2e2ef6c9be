// Umbrella header: the library's public API in one include.
//
//   #include <spmv.h>
//
// Matrix substrate:   spmv::CooBuilder, spmv::CsrMatrix, Matrix Market I/O,
//                     structure statistics, DIA formats, RCM reordering.
// Tuned SpMV:         spmv::TuningOptions, spmv::TunedMatrix (plan/multiply).
// Execution engine:   spmv::engine::ExecutionContext (the process-wide
//                     shared worker pool every variant borrows),
//                     spmv::engine::SpmvPlan (immutable plan + per-call
//                     Scratch; every plan's one front door is its
//                     multiply() and batched multiply_batch(), safe from
//                     any number of threads).
// Parallel variants:  spmv::SegmentedScanSpmv, spmv::ColumnPartitionedSpmv,
//                     spmv::SymmetricSpmv, spmv::MultiVectorSpmv,
//                     spmv::LocalStoreSpmv — all engine::SpmvPlan
//                     implementations on the shared pool.
// Baselines:          spmv::baseline::OskiLikeMatrix,
//                     spmv::baseline::PetscLikeSpmv (also engine plans).
// Serving:            spmv::serve::MatrixRegistry (named, refcounted,
//                     hot-swappable tuned matrices),
//                     spmv::serve::Scheduler (async submit() with
//                     request coalescing into batched dispatches),
//                     spmv::serve::ServeStats telemetry.
// Machine model:      spmv::model::Machine, predict(), power efficiency.
#pragma once

#include "baseline/oski_like.h"
#include "baseline/petsc_like.h"
#include "engine/execution_context.h"
#include "engine/spmv_plan.h"
#include "core/column_partition.h"
#include "core/kernels_csr.h"
#include "core/local_store.h"
#include "core/multivector.h"
#include "core/options.h"
#include "core/partition.h"
#include "core/segmented_scan.h"
#include "core/splitting.h"
#include "core/symmetric.h"
#include "core/tuned_matrix.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "matrix/coo.h"
#include "matrix/csr.h"
#include "matrix/dia.h"
#include "matrix/matrix_stats.h"
#include "matrix/mm_io.h"
#include "matrix/reorder.h"
#include "model/machine.h"
#include "model/perf_model.h"
#include "model/power.h"
#include "model/traffic.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/serve_stats.h"
