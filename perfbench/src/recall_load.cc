#include "recall_load.h"

#include <utility>

namespace pb {

RecallLoad::RecallLoad(hl::SimClock* clock, hl::StagerScheduler* stager,
                       std::vector<TimedBackend*> backends,
                       std::vector<int> failover, Spans* const* spans,
                       hl::SimTime pump_interval_us)
    : clock_(clock),
      stager_(stager),
      backends_(std::move(backends)),
      failover_(std::move(failover)),
      spans_(spans),
      interval_(pump_interval_us),
      next_tick_(clock->Now() + pump_interval_us) {}

void RecallLoad::Pump() {
  {
    Scope s(*spans_, kFederation, "stager.pump");
    Require(stager_->Pump(), "stager pump");
  }
  // Completion instants of everything the pump recalled, per shard.
  std::map<std::pair<int, uint32_t>, Completion> done;
  for (size_t b = 0; b < backends_.size(); ++b) {
    for (const Completion& c : backends_[b]->TakeCompletions()) {
      done[{static_cast<int>(b), c.tseg}] = c;
    }
  }
  for (auto& [tenant, fifo] : pending_) {
    const uint64_t served = stager_->ServedFor(tenant);
    uint64_t& seen = served_seen_[tenant];
    for (; seen < served && !fifo.empty(); ++seen) {
      const Pending p = fifo.front();
      fifo.pop_front();
      auto it = done.find({p.shard, p.tseg});
      if (it == done.end() && failover_[p.shard] >= 0) {
        it = done.find({failover_[p.shard], p.tseg});
      }
      if (it == done.end() || !it->second.ok) {
        unmatched_++;
        continue;
      }
      latencies_us_.push_back(static_cast<double>(it->second.done_at - p.due));
      due_us_.push_back(p.due);
    }
  }
}

void RecallLoad::Tick() {
  if (stager_->PendingRequests() > 0) {
    Pump();
  }
  if (on_tick) {
    on_tick();
  }
}

void RecallLoad::AdvanceTo(hl::SimTime t) {
  while (next_tick_ <= t) {
    if (stager_->PendingRequests() > 0 || on_tick) {
      if (next_tick_ > clock_->Now()) {
        Scope s(*spans_, kSim, "sim.advance");
        clock_->AdvanceTo(next_tick_);
      }
      Tick();
    }
    // A tick whose work overran the cadence skips the deadlines it missed
    // (a timer, not a backlog of ticks): recalls due meanwhile are
    // submitted before the next round runs.
    next_tick_ += interval_;
    if (next_tick_ <= clock_->Now()) {
      next_tick_ += (clock_->Now() - next_tick_) / interval_ * interval_ +
                    interval_;
    }
  }
  if (t > clock_->Now()) {
    Scope s(*spans_, kSim, "sim.advance");
    clock_->AdvanceTo(t);
  }
}

void RecallLoad::Submit(const std::string& tenant, int shard, uint32_t tseg,
                        hl::SimTime due, uint64_t request) {
  attempted_++;
  pending_[tenant].push_back({shard, tseg, due});
  for (;;) {
    hl::Status s;
    {
      Scope scope(*spans_, kFederation, "stager.submit", request);
      s = stager_->SubmitFetch(tenant, shard, tseg);
    }
    if (s.code() != hl::ErrorCode::kBusy) {
      Require(s, "submit fetch");
      break;
    }
    refusals_++;
    Pump();
  }
  lag_us_.push_back(static_cast<double>(clock_->Now() - due));
}

void RecallLoad::Drain() {
  bool more = true;
  while (stager_->PendingRequests() > 0 || more) {
    if (stager_->PendingRequests() > 0) {
      Pump();
    }
    more = on_tick ? on_tick() : false;
  }
}

uint64_t RecallLoad::failed() const {
  uint64_t queued = 0;
  for (const auto& [tenant, fifo] : pending_) {
    queued += fifo.size();
  }
  return unmatched_ + queued;
}

}  // namespace pb
