// The four benchmark workloads. Each call runs one round: a fresh system
// is set up, the timed phase runs, telemetry is exported, and the outputs
// are checked. See README.md for what each workload stresses and why.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace pb {

RoundResult RunRecallZipf(const RoundContext& ctx);
RoundResult RunMigrateBulk(const RoundContext& ctx);
RoundResult RunArchiveMixed(const RoundContext& ctx);
RoundResult RunSiteRebuild(const RoundContext& ctx);

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H_
