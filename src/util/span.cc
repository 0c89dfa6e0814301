#include "util/span.h"

#include <algorithm>
#include <functional>
#include <map>

#include "util/metrics.h"

namespace hl {

SpanTracer::SpanTracer(SimClock* clock, size_t capacity)
    : clock_(clock), capacity_(capacity == 0 ? 1 : capacity) {}

SpanTracer::SpanTracer(SpanTracer* delegate, std::string track_prefix)
    : delegate_(delegate), prefix_(std::move(track_prefix)) {}

uint32_t SpanTracer::InternId(std::string_view s) {
  if (delegate_ != nullptr) {
    return delegate_->InternId(s);
  }
  auto it = ids_.find(s);
  if (it != ids_.end()) {
    return it->second;
  }
  strings_.emplace_back(s);
  const uint32_t id = static_cast<uint32_t>(views_.size());
  views_.push_back(strings_.back());
  ids_.emplace(views_.back(), id);
  return id;
}

std::string_view SpanTracer::ViewOf(uint32_t id) const {
  if (delegate_ != nullptr) {
    return delegate_->ViewOf(id);
  }
  return views_[id];
}

size_t SpanTracer::interned_strings() const {
  return delegate_ != nullptr ? delegate_->interned_strings() : views_.size();
}

size_t SpanTracer::window_bytes() const {
  if (delegate_ != nullptr) {
    return delegate_->window_bytes();
  }
  return done_.capacity() * sizeof(SpanRecord);
}

std::string_view SpanTracer::PrefixTrack(std::string_view track) {
  // Map the delegate-interned raw track id to the interned prefixed name,
  // building "prefix + track" only the first time each track is seen.
  const uint32_t raw = delegate_->InternId(track);
  if (raw < prefixed_tracks_.size() && prefixed_tracks_[raw] != UINT32_MAX) {
    return delegate_->ViewOf(prefixed_tracks_[raw]);
  }
  const uint32_t prefixed = delegate_->InternId(prefix_ + std::string(track));
  if (prefixed_tracks_.size() <= raw) {
    prefixed_tracks_.resize(raw + 1, UINT32_MAX);
  }
  prefixed_tracks_[raw] = prefixed;
  return delegate_->ViewOf(prefixed);
}

SpanId SpanTracer::Begin(std::string_view name, std::string_view track) {
  return BeginChildOf(current(), name, track);
}

SpanId SpanTracer::BeginChildOf(SpanId parent, std::string_view name,
                                std::string_view track) {
  if (delegate_ != nullptr) {
    return delegate_->BeginChildOf(parent, name, PrefixTrack(track));
  }
  SpanRecord& rec = open_.emplace_back();
  rec.id = next_id_++;
  rec.parent = parent;
  rec.begin_us = clock_ != nullptr ? clock_->Now() : 0;
  rec.name = ViewOf(InternId(name));
  rec.track = ViewOf(InternId(track));
  stack_.push_back(rec.id);
  return rec.id;
}

SpanRecord* SpanTracer::FindOpen(SpanId id) {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->id == id) {
      return &*it;
    }
  }
  return nullptr;
}

void SpanTracer::Annotate(SpanId id, std::string_view key,
                          std::string_view value) {
  if (delegate_ != nullptr) {
    delegate_->Annotate(id, key, value);
    return;
  }
  SpanRecord* rec = FindOpen(id);
  if (rec == nullptr) {
    // Recently completed (AddComplete) spans are annotated after the fact;
    // search the window newest-first.
    for (size_t i = done_.size(); i-- > 0;) {
      if (MutableCompletedAt(i).id == id) {
        rec = &MutableCompletedAt(i);
        break;
      }
    }
  }
  if (rec != nullptr) {
    rec->args.emplace_back(ViewOf(InternId(key)), std::string(value));
  }
}

void SpanTracer::Retire(SpanRecord&& rec) {
  ++total_;
  if (done_.size() < capacity_) {
    done_.push_back(std::move(rec));
    return;
  }
  // Ring is full: overwrite the oldest slot in place (its arg storage is
  // reused, not freed and reallocated).
  done_[done_head_] = std::move(rec);
  done_head_ = (done_head_ + 1) % done_.size();
}

void SpanTracer::End(SpanId id) {
  if (delegate_ != nullptr) {
    delegate_->End(id);
    return;
  }
  if (id == kNoSpan) {
    return;
  }
  const SimTime now = clock_ != nullptr ? clock_->Now() : 0;
  // Defensive unwind: a span ended while descendants are still open (an
  // error path skipped their End) closes everything begun after it.
  size_t idx = open_.size();
  for (size_t i = open_.size(); i-- > 0;) {
    if (open_[i].id == id) {
      idx = i;
      break;
    }
  }
  if (idx == open_.size()) {
    return;  // Unknown or already-ended span.
  }
  for (size_t i = open_.size(); i-- > idx;) {
    open_[i].end_us = now;
    Retire(std::move(open_[i]));
    open_.pop_back();
  }
  while (!stack_.empty()) {
    bool ended = stack_.back() == id;
    // Everything above `id` on the stack was just retired with it.
    stack_.pop_back();
    if (ended) {
      break;
    }
  }
}

SpanId SpanTracer::AddComplete(std::string_view name, std::string_view track,
                               SpanId parent, SimTime begin_us,
                               SimTime end_us) {
  if (delegate_ != nullptr) {
    return delegate_->AddComplete(name, PrefixTrack(track), parent, begin_us,
                                  end_us);
  }
  SpanRecord rec;
  rec.id = next_id_++;
  rec.parent = parent;
  rec.begin_us = begin_us;
  rec.end_us = end_us;
  rec.name = ViewOf(InternId(name));
  rec.track = ViewOf(InternId(track));
  SpanId id = rec.id;
  Retire(std::move(rec));
  return id;
}

std::vector<SpanRecord> SpanTracer::Slowest(size_t n) const {
  if (delegate_ != nullptr) {
    return delegate_->Slowest(n);
  }
  std::vector<SpanRecord> all;
  all.reserve(done_.size());
  for (size_t i = 0; i < done_.size(); ++i) {
    all.push_back(CompletedAt(i));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.duration_us() > b.duration_us();
                   });
  if (all.size() > n) {
    all.resize(n);
  }
  return all;
}

void SpanTracer::Clear() {
  if (delegate_ != nullptr) {
    delegate_->Clear();
    return;
  }
  open_.clear();
  stack_.clear();
  done_.clear();
  done_head_ = 0;
  total_ = 0;
}

namespace {

std::string ArgsJson(const SpanRecord& r) {
  std::string out = "{";
  for (size_t i = 0; i < r.args.size(); ++i) {
    out.append("\"")
        .append(JsonEscape(std::string(r.args[i].first)))
        .append("\": \"")
        .append(JsonEscape(r.args[i].second))
        .append("\"");
    if (i + 1 < r.args.size()) {
      out += ", ";
    }
  }
  out += "}";
  return out;
}

}  // namespace

std::string SpanTracer::ToJson(size_t max_records) const {
  if (delegate_ != nullptr) {
    return delegate_->ToJson(max_records);
  }
  size_t take = std::min(max_records, done_.size());
  size_t start = done_.size() - take;
  std::string out = "[";
  for (size_t i = 0; i < take; ++i) {
    const SpanRecord& r = CompletedAt(start + i);
    out += "\n  {\"id\": " + std::to_string(r.id) +
           ", \"parent\": " + std::to_string(r.parent) +
           ", \"begin_us\": " + std::to_string(r.begin_us) +
           ", \"end_us\": " + std::to_string(r.end_us) + ", \"name\": \"" +
           JsonEscape(std::string(r.name)) + "\", \"track\": \"" +
           JsonEscape(std::string(r.track)) +
           "\", \"args\": " + ArgsJson(r) + "}";
    if (i + 1 < take) {
      out += ",";
    }
  }
  out += "\n]";
  return out;
}

std::string RenderSpanForest(const SpanTracer::CompletedView& spans) {
  std::map<SpanId, const SpanRecord*> by_id;
  std::map<SpanId, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& s : spans) {
    by_id[s.id] = &s;
  }
  for (const SpanRecord& s : spans) {
    if (s.parent != kNoSpan && by_id.count(s.parent) > 0) {
      children[s.parent].push_back(&s);
    } else {
      roots.push_back(&s);
    }
  }
  // Children sort by begin time so the tree reads chronologically.
  auto by_begin = [](const SpanRecord* a, const SpanRecord* b) {
    return a->begin_us < b->begin_us ||
           (a->begin_us == b->begin_us && a->id < b->id);
  };
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), by_begin);
  }
  std::sort(roots.begin(), roots.end(), by_begin);

  std::string out;
  std::function<void(const SpanRecord*, int)> emit =
      [&](const SpanRecord* s, int depth) {
        out += std::string(static_cast<size_t>(depth) * 2, ' ');
        out += std::string(s->name) + " [" + std::string(s->track) + "] " +
               std::to_string(s->duration_us()) + "us @" +
               std::to_string(s->begin_us);
        for (const auto& [k, v] : s->args) {
          out.append(" ").append(k).append("=").append(v);
        }
        out += "\n";
        auto it = children.find(s->id);
        if (it != children.end()) {
          for (const SpanRecord* kid : it->second) {
            emit(kid, depth + 1);
          }
        }
      };
  for (const SpanRecord* root : roots) {
    emit(root, 0);
  }
  return out;
}

void AppendPerfettoSpanEvents(const SpanTracer& spans, int pid,
                              const std::string& process_name,
                              std::string* out) {
  // One thread lane per distinct track, in first-appearance order.
  std::map<std::string_view, int> tids;
  for (const SpanRecord& s : spans.Completed()) {
    tids.emplace(s.track, static_cast<int>(tids.size()) + 1);
  }
  const std::string pid_text = std::to_string(pid);
  out->append("  {\"ph\": \"M\", \"name\": \"process_name\", \"pid\": ")
      .append(pid_text)
      .append(", \"tid\": 0, \"args\": {\"name\": \"")
      .append(JsonEscape(process_name))
      .append("\"}},\n");
  for (const auto& [track, tid] : tids) {
    out->append("  {\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": ")
        .append(pid_text)
        .append(", \"tid\": ")
        .append(std::to_string(tid))
        .append(", \"args\": {\"name\": \"")
        .append(JsonEscape(std::string(track)))
        .append("\"}},\n");
  }
  for (const SpanRecord& s : spans.Completed()) {
    out->append("  {\"ph\": \"X\", \"name\": \"")
        .append(JsonEscape(std::string(s.name)))
        .append("\", \"cat\": \"")
        .append(JsonEscape(std::string(s.track)))
        .append("\", \"ts\": ")
        .append(std::to_string(s.begin_us))
        .append(", \"dur\": ")
        .append(std::to_string(s.duration_us()))
        .append(", \"pid\": ")
        .append(pid_text)
        .append(", \"tid\": ")
        .append(std::to_string(tids[s.track]))
        .append(", \"args\": {\"span_id\": ")
        .append(std::to_string(s.id))
        .append(", \"parent\": ")
        .append(std::to_string(s.parent));
    for (const auto& [k, v] : s.args) {
      out->append(", \"")
          .append(JsonEscape(std::string(k)))
          .append("\": \"")
          .append(JsonEscape(v))
          .append("\"");
    }
    out->append("}},\n");
  }
}

namespace {
constexpr std::string_view kPerfettoHead =
    "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
}  // namespace

void BeginPerfettoTrace(std::string* out) { out->append(kPerfettoHead); }

void EndPerfettoTrace(std::string* out) {
  // Strip the trailing comma the appenders leave behind.
  size_t comma = out->find_last_of(',');
  if (comma != std::string::npos && comma >= kPerfettoHead.size() &&
      out->find_first_not_of(" \n", comma + 1) == std::string::npos) {
    out->erase(comma, 1);
  }
  out->append("]}\n");
}

std::string PerfettoTraceJson(const std::string& events) {
  std::string doc;
  doc.reserve(kPerfettoHead.size() + events.size() + 3);
  BeginPerfettoTrace(&doc);
  doc.append(events);
  EndPerfettoTrace(&doc);
  return doc;
}

}  // namespace hl

