// perfbench: the repository benchmark binary.
//
//   perfbench --workload <recall_zipf|migrate_bulk|archive_mixed|site_rebuild>
//             --seed <n> --seconds <s> --trace <0|1> --out <dir> [--small]
//
// Runs rounds of one workload while --seconds of wall time have room for
// half of another (at least kMinRounds). Every round builds a fresh system
// from the seed, so every round must produce the same simulated results;
// perfbench checks that. With --trace 0 it reports the end-to-end metrics
// as medians over the rounds. With --trace 1 rounds alternate untraced and
// traced: the traced rounds record spans and CPU samples and give the
// per-layer metrics, and the untraced ones give the tracing overhead.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "errors": [...],
//    "metrics": {name: value, ...}}
// holding every metric computed; run.py selects the ones BENCHMARK.json
// names for the mode, attaches their units from there, and fails the run
// when one is missing.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "profiler.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr int kMinRounds = 1;
constexpr int kMinTracedRounds = 2;  // One untraced, one traced.
constexpr int kMaxRounds = 200;
// setup_s is the median of at least this many set-ups: rounds that stop
// after setup make up the count when the full rounds are fewer.
constexpr size_t kMinSetups = 5;
// The export renders repeat for kFirstExportS in the first round and for
// kLaterExportS in later ones; export_s is the fastest render of the run.
constexpr double kFirstExportS = 6.0;
constexpr double kLaterExportS = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string out_dir = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --out DIR [--small]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + flag).c_str());
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--out") {
      a.out_dir = value();
    } else if (flag == "--small") {
      a.small = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) {
    Usage("--workload is required");
  }
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

RoundResult RunRound(const std::string& workload, const RoundContext& ctx) {
  if (workload == "recall_zipf") {
    return RunRecallZipf(ctx);
  }
  if (workload == "migrate_bulk") {
    return RunMigrateBulk(ctx);
  }
  if (workload == "archive_mixed") {
    return RunArchiveMixed(ctx);
  }
  if (workload == "site_rebuild") {
    return RunSiteRebuild(ctx);
  }
  Usage(("unknown workload " + workload).c_str());
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  const Args args = Parse(argc, argv);
  Profiler::Get();  // Installs the SIGPROF handler before any round.

  std::vector<RoundResult> rounds;
  std::vector<bool> traced;
  std::vector<std::string> errors;
  const double start = WallS();
  const int min_rounds = args.trace ? kMinTracedRounds : kMinRounds;
  auto context = [&args] {
    RoundContext ctx;
    ctx.seed = args.seed;
    ctx.small = args.small;
    ctx.out_dir = args.out_dir;
    ctx.workload = args.workload;
    return ctx;
  };
  // Another round starts only when at least half of it (judged by the last
  // round) fits in --seconds. A round barely past the budget would otherwise
  // start in some runs and not in others, and the medians would flip with
  // the round count.
  double last_round_s = 0;
  while (static_cast<int>(rounds.size()) < min_rounds ||
         (WallS() - start + last_round_s / 2 < args.seconds &&
          static_cast<int>(rounds.size()) < kMaxRounds)) {
    const double round_start = WallS();
    const bool trace_round = args.trace && rounds.size() % 2 == 1;
    Spans spans;
    RoundContext ctx = context();
    ctx.traced = trace_round;
    ctx.verify = rounds.size() < 2;  // In a traced run, one of each kind.
    ctx.export_window_s = rounds.empty() ? kFirstExportS : kLaterExportS;
    ctx.spans = trace_round ? &spans : nullptr;
    RoundResult r = RunRound(args.workload, ctx);
    if (trace_round) {
      if (!spans.Quiescent()) {
        r.errors.push_back("benchmark span stack not empty at round end");
      }
      std::ofstream f(args.out_dir + "/" + args.workload + ".spans.json");
      f << spans.ToJson();
      r.host["util.bench_span_records"] = static_cast<double>(spans.records());
    }
    for (const std::string& e : r.errors) {
      errors.push_back("round " + std::to_string(rounds.size()) + ": " + e);
    }
    // Every round of one seed must reproduce the first round's simulated
    // results exactly, traced or not.
    if (!rounds.empty() && r.det != rounds.front().det) {
      for (const auto& [name, value] : r.det) {
        auto it = rounds.front().det.find(name);
        if (it == rounds.front().det.end() || it->second != value) {
          errors.push_back("round " + std::to_string(rounds.size()) +
                           ": simulated value differs from round 0: " + name);
          break;
        }
      }
      if (r.det.size() != rounds.front().det.size()) {
        errors.push_back("simulated metric set differs between rounds");
      }
    }
    rounds.push_back(std::move(r));
    traced.push_back(trace_round);
    last_round_s = WallS() - round_start;
  }

  // Host values: medians over the rounds of the mode's kind, except the
  // export timings, which are the fastest render of any round.
  std::map<std::string, double> metrics = rounds.front().det;
  std::map<std::string, std::vector<double>> e2e_host, layer_host;
  for (size_t i = 0; i < rounds.size(); ++i) {
    auto& dst = traced[i] ? layer_host : e2e_host;
    for (const auto& [name, value] : rounds[i].host) {
      dst[name].push_back(value);
    }
  }
  while (!args.trace && e2e_host["setup_s"].size() < kMinSetups) {
    RoundContext ctx = context();
    ctx.setup_only = true;
    e2e_host["setup_s"].push_back(RunRound(args.workload, ctx).host["setup_s"]);
  }
  for (const auto& [name, values] : args.trace ? layer_host : e2e_host) {
    const bool fastest =
        name == "export_s" || name == "util.metrics_snapshot_us";
    metrics[name] = fastest ? *std::min_element(values.begin(), values.end())
                            : Median(values);
  }
  if (args.trace) {
    // Tracing overhead: traced vs untraced timed-phase wall time.
    const double on = Median(layer_host["timed_s"]);
    const double off = Median(e2e_host["timed_s"]);
    metrics["host.trace_overhead"] = off > 0 ? on / off - 1.0 : 0.0;
    metrics["host.profiler_ok"] = Profiler::Get().ranges_ok() ? 1 : 0;
  }
  metrics["peak_rss_mb"] = PeakRssMb();
  metrics["rounds"] = static_cast<double>(rounds.size());

  uint64_t attempted = 0, failed = 0;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
  }
  metrics["workload.ops_failed_frac"] =
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) /
                           static_cast<double>(attempted);
  if (attempted == 0) {
    errors.push_back("no operations attempted");
  }
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value)) {
      errors.push_back("metric is not finite: " + name);
    }
  }

  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    line += (i ? ", " : "") + JsonString(errors[i]);
  }
  line += "], \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    line += (first ? "" : ", ") + JsonString(name) + ": " + buf;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return errors.empty() ? 0 : 1;
}
