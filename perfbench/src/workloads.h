// The three perfbench workloads. Each generates its inputs from
// Options::seed, sets up, measures for Options::seconds, checks the
// program's outputs and returns every end-to-end metric (untraced run) or
// every per-layer metric it exercises (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "util.h"

namespace perfbench {

/// CLI-style batch jobs, each in a fresh string pool with a cold engine.
RunResult RunBatchCold(const Options& options);
/// Warm steady-state CLEAN serving through an in-process daemon.
RunResult RunServeClean(const Options& options);
/// DELTA streams against tracked sessions through the same daemon layer.
RunResult RunServeDelta(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
