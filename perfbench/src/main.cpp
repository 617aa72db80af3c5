// vela_perfbench: one fine-tune workload as a closed loop with one client.
//
//   vela_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--trace-out FILE]
//   vela_perfbench --workload NAME --seed N --digest-steps N
//
// One driver thread runs one optimizer step at a time through the public
// VelaSystem / EpRuntime API and prints the run's raw measurements as one
// JSON line: set-up times, step wall times, losses, process CPU time, the
// program's own counters, run diagnostics and, with --trace 1, a second
// (traced) window plus the layer-probe readings. perfbench/run.py turns them
// into the benchmark's metrics and checks. --digest-steps prints the digest
// of the inputs the generator makes for a seed, so a test can check that a
// run fed the program exactly those.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "probes.h"
#include "util/argparse.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using namespace vela;
using namespace perfbench;

// Enough steps for a tail percentile with ten samples beyond it.
constexpr std::size_t kMinTimedSteps = 20;
constexpr std::size_t kMinTracedSteps = 11;
// Leading steps re-run in-process to check the socket transport contract.
constexpr std::size_t kTransportCheckSteps = 3;
constexpr std::uint64_t kDigestSeed = 14695981039346656037ULL;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU time of the whole process (every thread).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

// Machine-wide CPU ticks from the first line of /proc/stat.
CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  if (in >> cpu && cpu == "cpu") {
    for (auto& x : v) in >> x;
  }
  for (auto x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// A fixed scalar loop in the benchmark's own code: its time tells whether the
// machine, not the program, moved between runs. Median of three, in ms.
std::uint64_t g_sink = 0;
double reference_loop_ms() {
  double best[3];
  for (double& t : best) {
    const double t0 = now_s();
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_sink += x;
    t = 1e3 * (now_s() - t0);
  }
  std::sort(std::begin(best), std::end(best));
  return best[1];
}

struct RunState {
  std::size_t next_step = 0;
  std::vector<float> losses;  // every completed step, warm-up included
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool broken = false;  // a step threw; the loop stops
  std::string error;
  std::uint64_t fed_digest = kDigestSeed;
};

struct Window {
  std::vector<double> wall_s;
  double cpu_s = 0.0;
  double steal_share = 0.0;
  std::size_t tokens = 0;
  double external_mb = 0.0;  // sums over the window's steps
  double modeled_s = 0.0;
  double paged_mb = 0.0;
  Counters before, after;
};

// Feeds the next generated batch to the program. Returns the step's wall
// time, or a negative value when it threw.
double run_step(Runner& runner, const InputGenerator& gen, RunState& st,
                Tracer& tracer, StepOutcome& out) {
  const Batch batch = gen.batch(st.next_step);
  st.fed_digest = digest(batch, st.fed_digest);
  ++st.attempted;
  const double t0 = now_s();
  try {
    Span span(tracer, "step", static_cast<long>(st.next_step));
    out = runner.step(batch);
  } catch (const std::exception& e) {
    ++st.failed;
    st.broken = true;
    st.error = e.what();
    return -1.0;
  }
  const double wall = now_s() - t0;
  ++st.next_step;
  st.losses.push_back(out.loss);
  if (!std::isfinite(out.loss)) ++st.failed;
  return wall;
}

Window run_window(Runner& runner, const InputGenerator& gen, RunState& st,
                  double seconds, std::size_t min_steps, Tracer& tracer) {
  Window w;
  w.before = runner.counters();
  const CpuTicks ticks0 = read_cpu_ticks();
  const double cpu0 = cpu_seconds();
  const double start = now_s();
  while (!st.broken &&
         (w.wall_s.size() < min_steps || now_s() - start < seconds)) {
    StepOutcome out;
    const double wall = run_step(runner, gen, st, tracer, out);
    if (wall < 0.0) break;
    w.wall_s.push_back(wall);
    w.tokens += gen.tokens_per_batch();
    w.external_mb += out.external_mb;
    w.modeled_s += out.modeled_s;
    w.paged_mb += out.paged_mb;
  }
  w.cpu_s = cpu_seconds() - cpu0;
  const CpuTicks ticks1 = read_cpu_ticks();
  if (ticks1.total > ticks0.total) {
    w.steal_share = static_cast<double>(ticks1.steal - ticks0.steal) /
                    static_cast<double>(ticks1.total - ticks0.total);
  }
  w.after = runner.counters();
  return w;
}

// --- JSON output -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

template <typename T>
std::string list(const std::vector<T>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + num(static_cast<double>(v[i]));
  }
  return out + "]";
}

std::string window_json(const Window& w) {
  const double n = static_cast<double>(std::max<std::size_t>(1, w.wall_s.size()));
  auto delta = [&](std::uint64_t Counters::*field) {
    return num(static_cast<double>(w.after.*field - w.before.*field) / n);
  };
  std::ostringstream o;
  o << "{\"wall_s\": " << list(w.wall_s) << ", \"cpu_s\": " << num(w.cpu_s)
    << ", \"steal_share\": " << num(w.steal_share)
    << ", \"tokens\": " << w.tokens
    << ", \"external_mb\": " << num(w.external_mb / n)
    << ", \"modeled_s\": " << num(w.modeled_s / n)
    << ", \"paged_mb\": " << num(w.paged_mb / n)
    << ", \"requests\": " << delta(&Counters::requests)
    << ", \"messages\": " << delta(&Counters::messages)
    << ", \"total_mb\": "
    << num(static_cast<double>(w.after.total_bytes - w.before.total_bytes) /
           1e6 / n)
    << ", \"replans_evaluated\": " << delta(&Counters::replans_evaluated)
    << ", \"replans_adopted\": " << delta(&Counters::replans_adopted) << "}";
  return o.str();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "vela_perfbench: %s\nusage: vela_perfbench --workload "
               "vela_bulk|vela_drift|ep_bulk --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE]\n"
               "       vela_perfbench --workload NAME --seed N --digest-steps N\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto w = find_workload(args.get_string("workload", ""));
  if (!w) return usage("unknown or missing --workload");
  if (!args.has("seed")) return usage("missing --seed");
  const std::uint64_t seed = args.get_size("seed", 0);
  const data::SyntheticCorpus corpus = bench_corpus();
  const InputGenerator gen(corpus, w->input, seed);
  const Batch profile_set = gen.profile_set(4 * w->input.batch_size);

  if (args.has("digest-steps")) {
    std::uint64_t h = kDigestSeed;
    const std::size_t n = args.get_size("digest-steps", 0);
    for (std::size_t i = 0; i < n; ++i) h = digest(gen.batch(i), h);
    std::printf("{\"fed_digest\": %s, \"profile_digest\": %s}\n", hex(h).c_str(),
                hex(digest(profile_set)).c_str());
    return 0;
  }

  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_size("trace", 0) == 1;
  const std::string work_dir = args.get_string("work-dir", "");
  if (work_dir.empty()) return usage("missing --work-dir");
  const double tokens_per_step = static_cast<double>(gen.tokens_per_batch());

  Tracer tracer;
  tracer.arm(trace);
  const double ref_ms = reference_loop_ms();

  // Set-up: construction up to the first trainable step, repeated; the last
  // system built is the one that trains.
  const int setup_reps = w->ep ? 9 : 5;
  std::unique_ptr<Runner> runner;
  std::vector<double> setup_s;
  for (int r = 0; r < setup_reps; ++r) {
    runner.reset();
    const double t0 = now_s();
    runner = make_runner(*w, corpus, profile_set, tokens_per_step, work_dir,
                         tracer);
    setup_s.push_back(now_s() - t0);
  }

  RunState st;
  for (std::size_t i = 0; i < w->warmup_steps && !st.broken; ++i) {
    StepOutcome out;
    run_step(*runner, gen, st, tracer, out);
  }

  // End-to-end window, untraced. The traced run halves it and adds a traced
  // window of the same length, then the layer probes.
  tracer.arm(false);
  const Window timed =
      run_window(*runner, gen, st, trace ? seconds / 2 : seconds,
                 trace ? kMinTracedSteps : kMinTimedSteps, tracer);
  const double rss_mb = peak_rss_mb();
  std::string traced_json = "null";
  std::string probes_json = "null";
  if (trace && !st.broken) {
    tracer.arm(true);
    traced_json = window_json(
        run_window(*runner, gen, st, seconds / 2, kMinTracedSteps, tracer));
    std::ostringstream o;
    o << "{\"profile_s\": " << num(median(tracer.durations("core.profile")))
      << ", \"placement_s\": "
      << num(median(tracer.durations("core.optimize_placement")));
    for (const auto& [name, value] :
         run_probes(*w, *runner, gen.batch(0), tokens_per_step, work_dir,
                    tracer)) {
      o << ", " << quoted(name) << ": " << num(value);
    }
    o << "}";
    probes_json = o.str();
  }

  // Transport contract: the socket run's first steps must be bit-identical
  // to the same seed in-process.
  std::string transport_check = "\"n/a\"";
  if (w->transport == comm::TransportKind::kSocket && !st.broken &&
      st.losses.size() >= kTransportCheckSteps) {
    runner.reset();
    Workload inproc = *w;
    inproc.transport = comm::TransportKind::kInProc;
    Tracer off;
    auto ref = make_runner(inproc, corpus, profile_set, tokens_per_step,
                           work_dir, off);
    bool same = true;
    for (std::size_t i = 0; i < kTransportCheckSteps; ++i) {
      const float loss = ref->step(gen.batch(i)).loss;
      same = same && std::memcmp(&loss, &st.losses[i], sizeof loss) == 0;
    }
    transport_check = same ? "\"identical\"" : "\"differs\"";
  }
  runner.reset();

  if (trace && !args.get_string("trace-out", "").empty() &&
      !tracer.write_json(args.get_string("trace-out", ""))) {
    std::fprintf(stderr, "vela_perfbench: cannot write the trace file\n");
    return 1;
  }

  std::ostringstream o;
  o << "{\"workload\": " << quoted(w->name) << ", \"seed\": " << seed
    << ", \"trace\": " << (trace ? 1 : 0)
    << ", \"lanes\": " << util::ThreadPool::global().size()
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"ref_loop_ms\": " << num(ref_ms)
    << ", \"tokens_per_step\": " << gen.tokens_per_batch()
    << ", \"setup_s\": " << list(setup_s) << ", \"attempted\": " << st.attempted
    << ", \"failed\": " << st.failed << ", \"error\": " << quoted(st.error)
    << ", \"losses\": " << list(st.losses)
    << ", \"fed_steps\": " << st.attempted
    << ", \"fed_digest\": " << hex(st.fed_digest)
    << ", \"profile_digest\": " << hex(digest(profile_set))
    << ", \"peak_rss_mb\": " << num(rss_mb)
    << ", \"transport_check\": " << transport_check
    << ", \"window\": " << window_json(timed) << ", \"traced\": " << traced_json
    << ", \"probes\": " << probes_json << "}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}
