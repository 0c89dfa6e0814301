// Open-loop demand-recall load against a StagerScheduler. Recalls are
// submitted at their due simulated time (or as soon after as the load loop
// gets to them: late intra-session events and kBusy retries count), the
// stager is pumped on a fixed sim-time cadence, and every recall is timed
// from its due instant to the moment its segment became usable.
//
// The stager reports completions per tenant (ServedFor) in per-tenant FIFO
// order, and the TimedBackend decorators report when each (shard, tseg)
// landed, so each pump's served recalls are matched to their completion
// instants without any hook inside the stager.

#ifndef PERFBENCH_RECALL_LOAD_H_
#define PERFBENCH_RECALL_LOAD_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "federation/stager.h"
#include "harness.h"

namespace pb {

class RecallLoad {
 public:
  // `backends[i]` is the decorator registered as stager shard i;
  // `failover[i]` is the shard that serves i's recalls when its site is
  // down (-1: none).
  RecallLoad(hl::SimClock* clock, hl::StagerScheduler* stager,
             std::vector<TimedBackend*> backends, std::vector<int> failover,
             Spans* const* spans, hl::SimTime pump_interval_us);

  // Extra work run on every cadence tick after the stager round (the site
  // rebuild's anti-entropy increments); returns true while it has work.
  std::function<bool()> on_tick;

  // Advances simulated time to `t`, pumping on every cadence tick passed.
  void AdvanceTo(hl::SimTime t);
  // Submits one recall due at `due` (absolute sim time); retries kBusy
  // refusals by pumping.
  void Submit(const std::string& tenant, int shard, uint32_t tseg,
              hl::SimTime due, uint64_t request);
  // Pumps until the admission queue is empty (and on_tick is done).
  void Drain();

  // Simulated latency from due to usable, per completed recall, in
  // completion order; generator lag (due -> submit) per recall.
  const std::vector<double>& latencies_us() const { return latencies_us_; }
  // Due instant of each entry of latencies_us().
  const std::vector<hl::SimTime>& due_us() const { return due_us_; }
  const std::vector<double>& lag_us() const { return lag_us_; }
  uint64_t attempted() const { return attempted_; }
  // Recalls that failed, could not be matched to a completion, or were
  // still queued at the end.
  uint64_t failed() const;
  uint64_t refusals() const { return refusals_; }

 private:
  struct Pending {
    int shard = 0;
    uint32_t tseg = 0;
    hl::SimTime due = 0;
  };
  void Pump();
  void Tick();

  hl::SimClock* clock_;
  hl::StagerScheduler* stager_;
  std::vector<TimedBackend*> backends_;
  std::vector<int> failover_;
  Spans* const* spans_;
  hl::SimTime interval_;
  hl::SimTime next_tick_ = 0;

  std::map<std::string, std::deque<Pending>> pending_;
  std::map<std::string, uint64_t> served_seen_;
  std::vector<double> latencies_us_;
  std::vector<hl::SimTime> due_us_;
  std::vector<double> lag_us_;
  uint64_t attempted_ = 0;
  uint64_t unmatched_ = 0;
  uint64_t refusals_ = 0;
};

}  // namespace pb

#endif  // PERFBENCH_RECALL_LOAD_H_
