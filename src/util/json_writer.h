// Composable pretty-printing JSON writer.
//
// One serializer for every machine-readable surface — the BENCH_<name>.json
// exporters in bench/bench_util.h and hlfs_inspect --json both emit through
// it — so commas, escaping and indentation live in exactly one place
// instead of being hand-rolled per printf site. The writer is append-only:
// Begin/End scopes nest, Key() names the next value inside an object, and
// scalars land either after a key or as array elements. Raw() splices an
// already-serialized JSON value (an embedded MetricsSnapshot::ToJson body),
// re-indenting its lines to the current depth.
//
// Numeric formatting is deliberately pinned: Double() uses the exporters'
// "%.3f" convention by default, so values round-trip bit-identically
// through the bench baseline diffs no matter which surface wrote them.

#ifndef HIGHLIGHT_UTIL_JSON_WRITER_H_
#define HIGHLIGHT_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.h"  // JsonEscape.

namespace hl {

class JsonWriter {
 public:
  explicit JsonWriter(int indent_step = 2) : step_(indent_step) {}

  void BeginObject() { Open('{', '}'); }
  void EndObject() { Close(); }
  void BeginArray() { Open('[', ']'); }
  void EndArray() { Close(); }

  // Names the next value; valid only inside an object.
  void Key(const std::string& name) {
    Separate();
    out_.append("\"").append(JsonEscape(name)).append("\": ");
    pending_key_ = true;
  }

  void String(const std::string& v) {
    std::string quoted = "\"";
    quoted.append(JsonEscape(v)).append("\"");
    Scalar(std::move(quoted));
  }
  void Int(int64_t v) { Scalar(std::to_string(v)); }
  void UInt(uint64_t v) { Scalar(std::to_string(v)); }
  void Bool(bool v) { Scalar(v ? "true" : "false"); }
  void Null() { Scalar("null"); }
  void Double(double v, const char* fmt = "%.3f") {
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    Scalar(buf);
  }
  // Splices a pre-serialized JSON value, indenting any embedded newlines to
  // the current depth so nested multi-line documents stay readable.
  void Raw(const std::string& json) {
    std::string indented;
    indented.reserve(json.size());
    const std::string pad(static_cast<size_t>(step_) * stack_.size(), ' ');
    for (char c : json) {
      indented.push_back(c);
      if (c == '\n') {
        indented += pad;
      }
    }
    Scalar(std::move(indented));
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  struct Scope {
    char close;
    size_t entries = 0;
  };

  std::string Indent() const {
    return std::string(static_cast<size_t>(step_) * stack_.size(), ' ');
  }

  // Positions the cursor for a new entry in the current scope: comma after
  // a previous sibling, then newline + indentation.
  void Separate() {
    if (stack_.empty()) {
      return;
    }
    if (stack_.back().entries > 0) {
      out_ += ",";
    }
    stack_.back().entries++;
    out_.append("\n").append(Indent());
  }

  void Place(const std::string& text) {
    if (pending_key_) {
      pending_key_ = false;  // Value lands right after "key": .
    } else {
      Separate();  // Array element (or top-level value).
    }
    out_ += text;
  }

  void Scalar(std::string text) { Place(text); }

  void Open(char open, char close) {
    Place(std::string(1, open));
    stack_.push_back(Scope{close});
  }

  void Close() {
    if (stack_.empty()) {
      return;
    }
    Scope scope = stack_.back();
    stack_.pop_back();
    // Empty scopes still close on their own line, matching the exporters'
    // long-standing "{\n  }" shape for empty sections.
    out_.append("\n").append(Indent()).push_back(scope.close);
  }

  int step_;
  std::string out_;
  std::vector<Scope> stack_;
  bool pending_key_ = false;
};

}  // namespace hl

#endif  // HIGHLIGHT_UTIL_JSON_WRITER_H_
