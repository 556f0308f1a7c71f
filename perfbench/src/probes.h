// Unit-cost probes for the traced run.
//
// Each probe times calls into one layer's public functions, from outside
// the program, on inputs shaped like the workload's: SimNet send + run
// with no-op handlers; a standalone TotalOrderBcast cluster and a
// standalone ErbNode cluster (each net of its own SimNet share);
// ConflictPlanner::plan, ParallelExecutor::execute and
// ReplayEngine::apply on replayed blocks; digest_history on a rendered
// history.  The traced run multiplies each unit cost by the workload's
// exact count of that unit to attribute wall time per committed op.
#pragma once

#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct UnitCosts {
  double simnet_ns_per_msg = 0;      ///< the runtime's message type
  double consensus_ns_per_slot = 0;  ///< SimNet share removed
  double erb_ns_per_bcast = 0;       ///< SimNet share removed
  double plan_ns_per_op = 0;
  double execute_ns_per_op = 0;      ///< includes the plan
  double apply_ns_per_op = 0;        ///< includes execute and plan
  double digest_ns_per_byte = 0;
  double waves_per_block = 0;        ///< of the probe's blocks
  double escalated_share = 0;
};

/// The median of `v`, which must not be empty.
double median(std::vector<double> v);

/// Measures the unit costs of the layers `wl` crosses, given one of its
/// rounds; the network probes run on cluster workloads only and the ERB
/// probe only where the fast lane does; a probe that does not run reads 0.
UnitCosts measure_unit_costs(const Workload& wl, const RoundCounts& round,
                             Tracer& tracer);

}  // namespace perfbench
