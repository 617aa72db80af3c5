// Layer probes for the traced run: each replays the workload's own batch
// and shapes through one layer's public API, with a span around every call.
#pragma once

#include <map>
#include <string>

#include "inputs.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

// Runs every probe that applies to the workload and returns its readings by
// name (milliseconds, microseconds or counts, as the name says). Probes of
// the layers EP bypasses (placement, store) do not run there and their names
// are absent.
std::map<std::string, double> run_probes(const Workload& w, Runner& runner,
                                         const Batch& batch,
                                         double tokens_per_step,
                                         const std::string& work_dir,
                                         Tracer& tracer);

}  // namespace perfbench
