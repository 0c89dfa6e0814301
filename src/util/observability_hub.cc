#include "util/observability_hub.h"

#include <utility>

namespace hl {

ObservabilityHub::ObservabilityHub(SimClock* clock, Config config)
    : clock_(clock),
      config_(config),
      ring_(clock, config.trace_capacity),
      spans_(clock, config.span_capacity),
      sampler_(config.sample_cadence_us, config.series_capacity) {}

ObservabilityHub::~ObservabilityHub() {
  if (hook_installed_ && clock_ != nullptr) {
    clock_->RemoveTickHook(hook_id_);
  }
}

void ObservabilityHub::Register(std::string label,
                                const MetricsRegistry* metrics,
                                const TraceRing* trace,
                                const SpanTracer* spans,
                                TimeSeriesSampler* sampler) {
  Deployment d;
  d.label = std::move(label);
  d.metrics = metrics;
  d.trace = trace;
  d.spans = spans;
  d.sampler = sampler;
  deployments_.push_back(std::move(d));
}

void ObservabilityHub::AddSeries(std::string name,
                                 TimeSeriesSampler::Probe probe) {
  sampler_.AddSeries(std::move(name), std::move(probe));
}

size_t ObservabilityHub::AddSlo(SloRule rule) {
  SloState state;
  state.rule = std::move(rule);
  state.breaches.BindTo(metrics_, "slo." + state.rule.name + ".breaches");
  state.breach_us.BindTo(metrics_, "slo." + state.rule.name + ".breach_us");
  state.breach_seconds.BindTo(metrics_,
                              "slo." + state.rule.name + ".breach_seconds");
  slos_.push_back(std::move(state));
  return slos_.size() - 1;
}

void ObservabilityHub::InstallTickHook() {
  if (clock_ == nullptr) {
    return;
  }
  hook_id_ = clock_->AddTickHook([this](SimTime now) { Poll(now); });
  hook_installed_ = true;
}

void ObservabilityHub::Poll(SimTime now) {
  for (Deployment& d : deployments_) {
    if (d.sampler != nullptr) {
      d.sampler->Poll(now);
    }
  }
  const uint64_t before = sampler_.samples_taken();
  sampler_.Poll(now);
  if (sampler_.samples_taken() != before) {
    // A new boundary-stamped sample landed: evaluate every SLO against it.
    // Evaluating only at sample instants keeps breach/clear times (and the
    // accrued breach_us) bit-identical across identically seeded runs.
    EvaluateSlos();
  }
}

void ObservabilityHub::EvaluateSlos() {
  for (size_t i = 0; i < slos_.size(); ++i) {
    SloState& s = slos_[i];
    const auto& points = sampler_.Series(s.rule.series);
    if (points.empty()) {
      continue;
    }
    const int64_t v = points.back().value;
    const bool breach = s.rule.breach_above ? v > s.rule.threshold
                                            : v < s.rule.threshold;
    if (breach != s.in_breach) {
      s.in_breach = breach;
      ring_.Record(breach ? TraceEvent::kSloBreach : TraceEvent::kSloClear,
                   i, static_cast<uint64_t>(v));
      if (breach) {
        s.breaches++;
      }
    }
    if (s.in_breach) {
      // One cadence interval of breach time per in-breach sample.
      s.breach_us += static_cast<uint64_t>(sampler_.cadence_us());
      s.breach_seconds.Set(
          static_cast<int64_t>(s.breach_us.value() / kUsPerSec));
    }
  }
}

MetricsSnapshot ObservabilityHub::MergedSnapshot() const {
  MetricsSnapshot out = metrics_.Snapshot();
  for (const Deployment& d : deployments_) {
    if (d.metrics == nullptr) {
      continue;
    }
    MetricsSnapshot snap = d.metrics->Snapshot();
    for (auto& [name, value] : snap.counters) {
      out.counters.emplace_back(d.label + "." + name, value);
    }
    for (auto& [name, value] : snap.gauges) {
      out.gauges.emplace_back(d.label + "." + name, value);
    }
    for (auto& [name, value] : snap.histograms) {
      out.histograms.emplace_back(d.label + "." + name, std::move(value));
    }
  }
  return out;
}

std::string ObservabilityHub::MergedTimelineJson() const {
  // One string from header to tail. Reserving the last render's size (plus
  // growth room) makes a render repeated over a run one allocation.
  std::string doc;
  doc.reserve(timeline_bytes_ + timeline_bytes_ / 8);
  BeginPerfettoTrace(&doc);
  AppendPerfettoSpanEvents(spans_, 1, "federation", &doc);
  AppendPerfettoCounterEvents(sampler_, 1, &doc);
  int pid = 2;
  for (const Deployment& d : deployments_) {
    // A deployment tracing through a view of the core tracer already
    // appears in process 1; only an independent tracer gets its own.
    const bool own_tracer =
        d.spans != nullptr && d.spans->root() != spans_.root();
    const bool own_sampler =
        d.sampler != nullptr && d.sampler->samples_taken() > 0;
    if (!own_tracer && !own_sampler) {
      continue;
    }
    if (own_tracer) {
      AppendPerfettoSpanEvents(*d.spans, pid, d.label, &doc);
    } else {
      // Counter-only process still wants a readable name.
      doc.append("  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": ")
          .append(std::to_string(pid))
          .append(", \"tid\": 0, \"args\": {\"name\": \"")
          .append(JsonEscape(d.label))
          .append("\"}},\n");
    }
    if (own_sampler) {
      AppendPerfettoCounterEvents(*d.sampler, pid, &doc);
    }
    ++pid;
  }
  EndPerfettoTrace(&doc);
  timeline_bytes_ = doc.size();
  return doc;
}

}  // namespace hl
