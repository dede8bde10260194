// stackbench: the full-stack benchmark.
//
//   stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--data-dir <dir>]
//   stackbench --self-test [--data-dir <dir>]
//
// One closed-loop client on one serving thread: the next P-RAM step is
// issued only after the previous one completed. A run repeats whole
// rounds (see workloads.hpp) until the timed steps add up to --seconds.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// spends half the time untraced and half traced (timing decorators
// between the layers) and prints the per-layer metrics. The last line
// of standard output is one JSON object with correct/attempted/failed/
// metrics. Exit code 0 means the run completed; `correct` says whether
// every check passed.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "heap_meter.hpp"
#include "obs/phase.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using stackbench::RoundResult;
using stackbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string data_dir = ".bench_build/data";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "stackbench: %s\nusage: stackbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--data-dir <dir>]\n"
               "       stackbench --self-test [--data-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value for " + key).c_str());
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--data-dir") {
      args.data_dir = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!args.self_test && stackbench::find_workload(args.workload) == nullptr) {
    usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (!(args.seconds > 0.0) || args.seconds > 120.0) {
    usage("--seconds must be in (0, 120]");
  }
  return args;
}

/// Linear-interpolated quantile of `values` (copied, then sorted).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// All rounds of one (untraced or traced) half of a run, merged.
struct RunTotals {
  /// The untimed round the heap meter ran in, checked like the others.
  RoundResult metered;
  std::vector<RoundResult> rounds;  ///< timed rounds, step_us moved out
  std::vector<double> step_us;      ///< every timed step of every round
  std::vector<double> round_steps_per_s;
  std::vector<double> setup_s;
  std::vector<double> make_scheme_s;
  std::vector<double> recover_s;
  /// The stack's own peak memory: the largest growth of the live heap
  /// over the metered round, beyond what was live when it began (the
  /// inputs and the reference).
  double stack_heap_mib = 0.0;
  /// The process's peak resident set at the end (VmHWM), for the log.
  double process_hwm_mib = 0.0;
  std::uint64_t steps_per_round = 0;
  double timed_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool deterministic = true;  ///< every round gave the metered checksum

  [[nodiscard]] std::uint64_t steps() const { return step_us.size(); }
  [[nodiscard]] std::uint64_t checksum() const {
    return metered.checksum;
  }
  /// Median over rounds of each round's throughput: robust to a burst of
  /// host noise that slows one round.
  [[nodiscard]] double steps_per_s() const {
    return quantile(round_steps_per_s, 0.5);
  }
};

/// This process image's peak resident set so far, in MiB: VmHWM from
/// /proc/self/status. (getrusage's ru_maxrss would also count the parent
/// process's resident set, which Linux carries over across exec.) It is
/// printed, not reported as a metric: the same round's resident peak
/// moved by 7 MiB between seeds whose live-heap peaks agreed within
/// 0.4 MiB, as the allocator reused freed pages differently.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

RunTotals run_rounds(const Workload& workload, const Args& args,
                     double seconds, stackbench::SpanRecorder* recorder,
                     const std::string& data_dir) {
  RunTotals totals;
  totals.step_us.reserve(1 << 17);
  totals.rounds.reserve(256);
  stackbench::RunInputs inputs = stackbench::make_inputs(workload, args.seed);
  stackbench::RoundOptions options;
  options.data_dir = data_dir;
  // One untimed and untraced round first, with the heap meter on: it
  // gives the stack's peak memory. The meter slows a round (by about 12%
  // on sort-hpmot), so the timed rounds run with it off. The metered
  // round is checked like the others.
  stackbench::heap::start();
  totals.metered = stackbench::run_round(workload, inputs, options);
  totals.stack_heap_mib =
      static_cast<double>(stackbench::heap::stop()) / (1024.0 * 1024.0);
  options.recorder = recorder;
  totals.metered.step_us = {};
  totals.attempted += totals.metered.attempted;
  totals.failed += totals.metered.failed;
  do {
    RoundResult round = stackbench::run_round(workload, inputs, options);
    totals.steps_per_round = round.step_us.size();
    totals.round_steps_per_s.push_back(
        static_cast<double>(round.step_us.size()) / round.timed_s);
    totals.step_us.insert(totals.step_us.end(), round.step_us.begin(),
                          round.step_us.end());
    totals.setup_s.push_back(round.setup_s);
    totals.make_scheme_s.push_back(round.make_scheme_s);
    if (!workload.sort) {
      totals.recover_s.push_back(round.recover_s);
    }
    totals.timed_s += round.timed_s;
    totals.attempted += round.attempted;
    totals.failed += round.failed;
    if (round.checksum != totals.metered.checksum) {
      totals.deterministic = false;
    }
    round.step_us = {};
    totals.rounds.push_back(std::move(round));
  } while (totals.timed_s < seconds);
  totals.process_hwm_mib = peak_rss_mib();
  return totals;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_manifest(const Args& args, const Workload& workload) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("manifest workload=%s seed=%" PRIu64
              " seconds=%g trace=%d nproc=%ld compiler=\"%s\" "
              "build_type=%s PRAMSIM_NATIVE_ARCH=OFF PRAMSIM_OBS=%s "
              "load=closed-loop clients=1 serve_threads=1 backend=serial\n",
              workload.name.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), compiler,
              STACKBENCH_BUILD_TYPE, pramsim::obs::kEnabled ? "ON" : "OFF");
}

void print_checks(const char* label, const RunTotals& t) {
  std::uint64_t flagged = 0;
  std::uint64_t wrong = 0;
  std::uint64_t wrong_final = 0;
  std::uint64_t wrong_recovered = 0;
  std::uint64_t oracle_wrong = 0;
  std::uint64_t oracle_uncorrectable = 0;
  const auto add = [&](const RoundResult& r) {
    flagged += r.flagged_reads;
    wrong += r.wrong_reads;
    wrong_final += r.wrong_final;
    wrong_recovered += r.wrong_recovered;
    oracle_wrong += r.oracle_wrong_reads;
    oracle_uncorrectable += r.oracle_uncorrectable;
  };
  add(t.metered);
  for (const RoundResult& r : t.rounds) {
    add(r);
  }
  std::printf("%s rounds=%zu+1 timed_steps=%" PRIu64 " timed_s=%.4f "
              "checksum=0x%016" PRIx64 " checksum_identical_in_all_rounds=%s\n",
              label, t.rounds.size(), t.steps(), t.timed_s, t.checksum(),
              t.deterministic ? "yes" : "NO");
  std::printf("%s operations attempted=%" PRIu64 " failed=%" PRIu64
              " (flagged_reads=%" PRIu64 " wrong_reads=%" PRIu64
              " wrong_final=%" PRIu64 " wrong_recovered=%" PRIu64
              ") oracle wrong_reads=%" PRIu64 " uncorrectable=%" PRIu64 "\n",
              label, t.attempted, t.failed, flagged, wrong, wrong_final,
              wrong_recovered, oracle_wrong, oracle_uncorrectable);
  std::printf("%s steps_per_s by round:", label);
  for (const double sps : t.round_steps_per_s) {
    std::printf(" %.2f", sps);
  }
  std::printf("\n");
  const std::size_t n = t.step_us.size();
  std::printf("%s samples step_p50=%zu step_p99=%zu (beyond p99: %zu) "
              "setup=%zu\n",
              label, n, n, n / 100, t.setup_s.size());
  std::printf("%s memory stack_heap_peak=%.3f MiB process_vmhwm=%.3f MiB\n",
              label, t.stack_heap_mib, t.process_hwm_mib);
}

std::vector<Metric> end_to_end(const RunTotals& t) {
  const RoundResult& r = t.rounds.front();  // every round runs the same steps
  const auto steps = static_cast<double>(t.steps_per_round);
  return {
      {"steps_per_s", t.steps_per_s(), "steps/s"},
      {"step_p50_us", quantile(t.step_us, 0.50), "us"},
      {"step_p99_us", quantile(t.step_us, 0.99), "us"},
      {"setup_s", quantile(t.setup_s, 0.5), "s"},
      {"peak_heap_mib", t.stack_heap_mib, "MiB"},
      {"sim_time_per_step", static_cast<double>(r.sim_time) / steps,
       "ticks/step"},
      {"sim_work_per_step", static_cast<double>(r.sim_work) / steps,
       "accesses/step"},
  };
}

std::vector<Metric> per_layer(const Workload& workload, const RunTotals& plain,
                              const RunTotals& traced,
                              const stackbench::SpanRecorder& recorder) {
  const auto totals = recorder.totals();
  const auto self_ns = [&](const char* name) -> double {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const auto total_ns = [&](const char* name) -> double {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const auto count = [&](const char* name) -> double {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double steps = static_cast<double>(traced.steps());
  const double rounds = static_cast<double>(traced.rounds.size());
  const auto per_step_us = [&](double ns) { return ns * 1e-3 / steps; };
  const auto per_call_us = [&](double ns, double calls) {
    return calls == 0.0 ? 0.0 : ns * 1e-3 / calls;
  };

  // Sums over traced rounds of the per-round telemetry.
  double hits = 0, misses = 0, evictions = 0, writebacks = 0, masked = 0,
         shares_short = 0, repaired = 0, relocated = 0, wal_bytes = 0,
         events = 0, max_queue = 0, replayed = 0, checkpoint_bytes = 0;
  std::array<double, pramsim::obs::kPhaseCount> phase_ns{};
  for (const RoundResult& r : traced.rounds) {
    hits += static_cast<double>(r.cache.hits);
    misses += static_cast<double>(r.cache.misses);
    evictions += static_cast<double>(r.cache.evictions);
    writebacks += static_cast<double>(r.cache.writebacks);
    masked += static_cast<double>(r.faults_masked);
    shares_short += static_cast<double>(r.shares_short);
    repaired += static_cast<double>(r.scrub.repaired);
    relocated += static_cast<double>(r.scrub.relocated);
    wal_bytes += static_cast<double>(r.wal_bytes);
    events += static_cast<double>(r.journal_events);
    max_queue += r.majority ? static_cast<double>(r.max_queue) : 0.0;
    replayed += static_cast<double>(r.replayed_records);
    checkpoint_bytes = static_cast<double>(r.checkpoint_bytes);
    for (std::size_t p = 0; p < pramsim::obs::kPhaseCount; ++p) {
      phase_ns[p] += static_cast<double>(r.phases.stats[p].total_ns);
    }
  }
  const auto phase_us = [&](pramsim::obs::Phase phase) {
    return per_step_us(phase_ns[static_cast<std::size_t>(phase)]);
  };
  const double accesses = hits + misses;

  const double root_ns = total_ns("step");
  const double covered_ns = root_ns - self_ns("step");
  const bool ida = workload.spec.kind == pramsim::core::SchemeKind::kIda;
  const char* scheme = ida ? "ida.serve" : "majority.serve";

  return {
      {"core.plan_build_us", per_step_us(self_ns("core.plan_build")),
       "us/step"},
      {"core.make_scheme_s", quantile(traced.make_scheme_s, 0.5), "s"},
      {"pram.machine_self_us", per_step_us(self_ns("pram.machine")),
       "us/step"},
      {"faults.self_us",
       per_step_us(self_ns("faults.serve") + self_ns("faults.step")),
       "us/step"},
      {"faults.scrub_us",
       per_call_us(total_ns("faults.scrub"), count("faults.scrub")),
       "us/pass"},
      {"faults.masked_per_step", masked / steps, "count/step"},
      {"faults.scrub_repaired", repaired / rounds, "count/round"},
      {"faults.scrub_relocated", relocated / rounds, "count/round"},
      {"cache.self_us", per_step_us(self_ns("cache.serve")), "us/step"},
      {"cache.hit_rate", accesses == 0.0 ? 0.0 : hits / accesses, "ratio"},
      {"cache.hits", hits / rounds, "count/round"},
      {"cache.misses", misses / rounds, "count/round"},
      {"cache.misses_per_step", misses / steps, "count/step"},
      {"cache.evictions_per_step", evictions / steps, "count/step"},
      {"cache.writebacks_per_step", writebacks / steps, "count/step"},
      {"majority.serve_us", per_step_us(ida ? 0.0 : self_ns(scheme)),
       "us/step"},
      {"majority.step_us", per_step_us(self_ns("majority.step")), "us/step"},
      {"majority.max_queue", max_queue / steps, "count"},
      {"ida.serve_us", per_step_us(ida ? self_ns(scheme) : 0.0), "us/step"},
      {"ida.shares_short_per_step", shares_short / steps, "count/step"},
      {"durability.wal_append_us",
       per_step_us(total_ns("durability.wal_append")), "us/step"},
      {"durability.wal_flush_us",
       per_call_us(total_ns("durability.wal_flush"),
                   count("durability.wal_flush")),
       "us/flush"},
      {"durability.wal_bytes_per_step", wal_bytes / steps, "bytes/step"},
      {"durability.checkpoint_us",
       per_call_us(total_ns("durability.checkpoint"),
                   count("durability.checkpoint")),
       "us/checkpoint"},
      {"durability.checkpoint_bytes", checkpoint_bytes, "bytes"},
      {"durability.recover_s", quantile(traced.recover_s, 0.5), "s"},
      {"durability.replayed_records", replayed / rounds, "count/round"},
      {"obs.events_per_step", events / steps, "events/step"},
      {"obs.phase.engine_schedule_us",
       phase_us(pramsim::obs::Phase::kEngineSchedule), "us/step"},
      {"obs.phase.value_phase_us", phase_us(pramsim::obs::Phase::kValuePhase),
       "us/step"},
      {"obs.phase.decode_us", phase_us(pramsim::obs::Phase::kDecode),
       "us/step"},
      {"obs.phase.encode_us", phase_us(pramsim::obs::Phase::kEncode),
       "us/step"},
      {"obs.phase.oracle_us", phase_us(pramsim::obs::Phase::kOracle),
       "us/step"},
      {"trace.coverage_pct", root_ns == 0.0 ? 0.0 : 100.0 * covered_ns / root_ns,
       "%"},
      {"trace.overhead_pct",
       100.0 * (plain.steps_per_s() / traced.steps_per_s() - 1.0), "%"},
  };
}

/// Slices of the traced wall clock, largest first (human-readable).
void print_slices(const stackbench::SpanRecorder& recorder,
                  const RunTotals& traced) {
  const auto totals = recorder.totals();
  std::vector<std::pair<double, std::string>> slices;
  double root_ns = 0.0;
  for (const auto& [name, t] : totals) {
    if (name == "step") {
      root_ns = static_cast<double>(t.total_ns);
    }
    slices.emplace_back(static_cast<double>(t.self_ns), name);
  }
  std::sort(slices.rbegin(), slices.rend());
  for (const auto& [ns, name] : slices) {
    std::printf("slice %-28s self %10.2f us/step  %6.2f%%\n",
                name == "step" ? "bench.loop (unattributed)" : name.c_str(),
                ns * 1e-3 / static_cast<double>(traced.steps()),
                root_ns == 0.0 ? 0.0 : 100.0 * ns / root_ns);
  }
}

int run(const Args& args) {
  const Workload& workload = *stackbench::find_workload(args.workload);
  print_manifest(args, workload);
  const std::string data_dir =
      (std::filesystem::path(args.data_dir) /
       (workload.name + "-" + std::to_string(getpid())))
          .string();

  if (!args.trace) {
    const RunTotals totals =
        run_rounds(workload, args, args.seconds, nullptr, data_dir);
    std::filesystem::remove_all(data_dir);
    print_checks("untraced", totals);
    print_result(totals.deterministic && totals.failed == 0, totals.attempted,
                 totals.failed,
                 end_to_end(totals));
    return 0;
  }

  const RunTotals plain =
      run_rounds(workload, args, args.seconds / 2, nullptr, data_dir);
  stackbench::SpanRecorder recorder;
  const RunTotals traced =
      run_rounds(workload, args, args.seconds / 2, &recorder, data_dir);
  std::filesystem::remove_all(data_dir);
  print_checks("untraced", plain);
  print_checks("traced", traced);
  const bool transparent = plain.checksum() == traced.checksum();
  std::printf("traced checksum %s the untraced checksum\n",
              transparent ? "matches" : "DIFFERS FROM");
  print_slices(recorder, traced);
  const std::string spans_path =
      (std::filesystem::path(args.data_dir) /
       ("spans-" + workload.name + "-" + std::to_string(args.seed) + ".tsv"))
          .string();
  if (recorder.write_tsv(spans_path)) {
    std::printf("spans written to %s\n", spans_path.c_str());
  }
  const std::uint64_t failed = plain.failed + traced.failed;
  print_result(plain.deterministic && traced.deterministic && transparent &&
                   failed == 0,
               plain.attempted + traced.attempted,
               failed,
               per_layer(workload, plain, traced, recorder));
  return 0;
}

/// Short rounds of every workload must pass every check, and the
/// negative cases must be caught: a decorator that changes one read
/// value, and a perturbed expected sort output.
int self_test(const Args& args) {
  bool ok = true;
  const auto report = [&](const std::string& what, bool pass) {
    std::printf("self-test %-52s %s\n", what.c_str(), pass ? "ok" : "FAILED");
    ok = ok && pass;
  };
  for (const Workload& full : stackbench::all_workloads()) {
    const Workload w = stackbench::shortened(full);
    stackbench::RunInputs inputs = stackbench::make_inputs(w, 1);
    stackbench::RoundOptions options;
    options.data_dir = (std::filesystem::path(args.data_dir) /
                        ("selftest-" + w.name + "-" + std::to_string(getpid())))
                           .string();
    const RoundResult clean = stackbench::run_round(w, inputs, options);
    report(w.name + ": short round passes its checks",
           clean.failed == 0 && clean.attempted > 0);

    stackbench::SpanRecorder recorder;
    options.recorder = &recorder;
    const RoundResult traced = stackbench::run_round(w, inputs, options);
    report(w.name + ": traced checksum equals untraced",
           traced.checksum == clean.checksum && traced.failed == 0);
    options.recorder = nullptr;

    options.tamper_step = w.warmup_steps + 3;
    const RoundResult tampered = stackbench::run_round(w, inputs, options);
    report(w.name + ": one tampered read value is caught",
           tampered.failed >= 1);
    options.tamper_step = 0;

    if (w.sort) {
      options.perturb_expected = true;
      const RoundResult perturbed = stackbench::run_round(w, inputs, options);
      report(w.name + ": a perturbed expected value is caught",
             perturbed.failed == 1);
    }
    std::filesystem::remove_all(options.data_dir);
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    return args.self_test ? self_test(args) : run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stackbench: %s\n", e.what());
    return 1;
  }
}
