#include "util/metrics.h"

#include <cstdio>

namespace hl {

void Counter::BindTo(MetricsRegistry& registry, const std::string& name) {
  uint64_t* slot = registry.CounterSlot(name);
  *slot += local_;
  local_ = 0;
  slot_ = slot;
}

void Gauge::BindTo(MetricsRegistry& registry, const std::string& name) {
  Gauge::Data* slot = registry.GaugeSlot(name);
  slot->max = std::max(slot->max, local_.max);
  if (local_.value != 0) {
    slot->value = local_.value;
  }
  local_ = Data{};
  data_ = slot;
}

void Histogram::BindTo(MetricsRegistry& registry, const std::string& name) {
  Histogram::Data* slot = registry.HistogramSlot(name);
  if (local_.count != 0) {
    for (int i = 0; i < kNumBuckets; ++i) {
      slot->buckets[i] += local_.buckets[i];
    }
    slot->min = slot->count == 0 ? local_.min : std::min(slot->min, local_.min);
    slot->max = std::max(slot->max, local_.max);
    slot->count += local_.count;
    slot->sum += local_.sum;
    local_ = Data{};
  }
  data_ = slot;
}

uint64_t Histogram::Data::Percentile(double p) const {
  if (count == 0) {
    return 0;
  }
  p = std::min(1.0, std::max(0.0, p));
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > count) {
    rank = count;
  }
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (seen + buckets[i] < rank) {
      seen += buckets[i];
      continue;
    }
    // Bucket i covers [2^(i-1), 2^i); bucket 0 holds zero-latency points.
    uint64_t lo = i == 0 ? 0 : (1ull << (i - 1));
    uint64_t hi = i == 0 ? 0 : (1ull << i) - 1;
    double frac = static_cast<double>(rank - seen) /
                  static_cast<double>(buckets[i]);
    uint64_t v = lo + static_cast<uint64_t>(
                          static_cast<double>(hi - lo) * frac);
    return std::min(max, std::max(min, v));
  }
  return max;
}

uint64_t* MetricsRegistry::CounterSlot(const std::string& name) {
  auto it = counter_index_.find(name);
  if (it == counter_index_.end()) {
    it = counter_index_.emplace(name, counters_.size()).first;
    counters_.push_back(0);
  }
  return &counters_[it->second];
}

Gauge::Data* MetricsRegistry::GaugeSlot(const std::string& name) {
  auto it = gauge_index_.find(name);
  if (it == gauge_index_.end()) {
    it = gauge_index_.emplace(name, gauges_.size()).first;
    gauges_.push_back(Gauge::Data{});
  }
  return &gauges_[it->second];
}

Histogram::Data* MetricsRegistry::HistogramSlot(const std::string& name) {
  auto it = histogram_index_.find(name);
  if (it == histogram_index_.end()) {
    it = histogram_index_.emplace(name, histograms_.size()).first;
    histograms_.push_back(Histogram::Data{});
  }
  return &histograms_[it->second];
}

Counter MetricsRegistry::counter(const std::string& name) {
  Counter c;
  c.BindTo(*this, name);
  return c;
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  Gauge g;
  g.BindTo(*this, name);
  return g;
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  Histogram h;
  h.BindTo(*this, name);
  return h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counter_index_.size());
  for (const auto& [name, idx] : counter_index_) {
    snap.counters.emplace_back(name, counters_[idx]);
  }
  snap.gauges.reserve(gauge_index_.size());
  for (const auto& [name, idx] : gauge_index_) {
    snap.gauges.emplace_back(name, gauges_[idx]);
  }
  snap.histograms.reserve(histogram_index_.size());
  for (const auto& [name, idx] : histogram_index_) {
    snap.histograms.emplace_back(name, histograms_[idx]);
  }
  return snap;
}

void MetricsRegistry::Reset() {
  for (uint64_t& c : counters_) {
    c = 0;
  }
  for (Gauge::Data& g : gauges_) {
    g = Gauge::Data{};
  }
  for (Histogram::Data& h : histograms_) {
    h = Histogram::Data{};
  }
}

uint64_t MetricsSnapshot::Value(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) {
      return v;
    }
  }
  for (const auto& [n, g] : gauges) {
    if (n == name) {
      return static_cast<uint64_t>(g.value < 0 ? 0 : g.value);
    }
  }
  return 0;
}

bool MetricsSnapshot::Has(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) {
      return true;
    }
  }
  for (const auto& [n, g] : gauges) {
    if (n == name) {
      return true;
    }
  }
  for (const auto& [n, h] : histograms) {
    if (n == name) {
      return true;
    }
  }
  return false;
}

double MetricsSnapshot::Ratio(const std::string& a, const std::string& b) const {
  double va = static_cast<double>(Value(a));
  double vb = static_cast<double>(Value(b));
  return (va + vb) == 0.0 ? 0.0 : va / (va + vb);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string Pad(int indent, int level) {
  std::string pad;
  if (indent > 0) {
    pad.append("\n").append(
        static_cast<size_t>(indent) * static_cast<size_t>(level), ' ');
  }
  return pad;
}

}  // namespace

std::string MetricsSnapshot::ToJson(int indent) const {
  std::string out = "{";
  out += Pad(indent, 1) + "\"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += Pad(indent, 2) + "\"" + JsonEscape(counters[i].first) +
           "\": " + std::to_string(counters[i].second);
    if (i + 1 < counters.size()) {
      out += ",";
    }
  }
  out += Pad(indent, 1) + "},";

  out += Pad(indent, 1) + "\"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += Pad(indent, 2) + "\"" + JsonEscape(gauges[i].first) +
           "\": {\"value\": " + std::to_string(gauges[i].second.value) +
           ", \"max\": " + std::to_string(gauges[i].second.max) + "}";
    if (i + 1 < gauges.size()) {
      out += ",";
    }
  }
  out += Pad(indent, 1) + "},";

  out += Pad(indent, 1) + "\"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const Histogram::Data& h = histograms[i].second;
    out += Pad(indent, 2) + "\"" + JsonEscape(histograms[i].first) +
           "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum_us\": " + std::to_string(h.sum) +
           ", \"min_us\": " + std::to_string(h.min) +
           ", \"max_us\": " + std::to_string(h.max) +
           ", \"p50_us\": " + std::to_string(h.Percentile(0.50)) +
           ", \"p95_us\": " + std::to_string(h.Percentile(0.95)) +
           ", \"p99_us\": " + std::to_string(h.Percentile(0.99)) +
           ", \"buckets\": [";
    // Trailing zero buckets carry no information; stop at the last non-zero.
    int last = Histogram::kNumBuckets - 1;
    while (last >= 0 && h.buckets[last] == 0) {
      --last;
    }
    for (int b = 0; b <= last; ++b) {
      out += std::to_string(h.buckets[b]);
      if (b < last) {
        out += ", ";
      }
    }
    out += "]}";
    if (i + 1 < histograms.size()) {
      out += ",";
    }
  }
  out += Pad(indent, 1) + "}";
  out += Pad(indent, 0) + "}";
  return out;
}

}  // namespace hl
