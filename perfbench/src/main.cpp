// perfbench — the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --list
//
// Runs one named workload in a closed loop: one Program execution at a
// time from this single thread, for S seconds (and at least kMinSamples
// executions). With --trace 0 it reports the end-to-end metrics; with
// --trace 1 a separate traced run reports the per-layer metrics (rungs,
// timed calls into each layer, reductions of the runtime's own spans and
// counters). Output: a stamp naming the host and configuration, one line
// per metric with its unit, the verification verdict, and — as the last
// line — one JSON object {"correct", "attempted", "failed", "metrics"}.
// perfbench/README.md documents every workload and metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mem/numa.h"
#include "orwl/backend.h"
#include "orwl/program.h"
#include "perfbench.h"
#include "place/placement.h"
#include "sim/calibration.h"
#include "sim/cost_model.h"
#include "sim/simulator.h"
#include "support/time.h"
#include "topo/topology.h"
#include "workloads/workloads.h"

namespace {

using namespace orwl;
using perfbench::Metric;

/// A benchmark workload: a registered workload at a fixed scale on one
/// backend. Only scale, seed and backend are chosen here.
struct Spec {
  const char* name;
  const char* registered;  ///< workloads::registry() name
  workloads::Params params;
  bool sim;          ///< SimBackend on the paper machine (else RuntimeBackend)
  bool verify_each;  ///< the sequential reference is cheap: check every run
  const char* why;
  /// Iterations of the traced run when `params.iterations` would overflow a
  /// thread's trace ring (obs.trace_dropped > 0); 0 keeps them.
  int traced_iterations = 0;
};

const Spec kSpecs[] = {
    {"handoff", "pipeline", {.tasks = 4, .size = 1024, .iterations = 2000},
     false, true,
     "chains of exclusive write->single-read grants with ~1 us of compute: "
     "the grant path does most of the work"},
    {"fanout", "alltoall", {.tasks = 4, .size = 1024, .iterations = 2400},
     false, true,
     "one write and three shared reads per chunk per round, four threads "
     "releasing at once: read runs and combiner contention",
     600},
    {"stencil", "stencil2d", {.tasks = 4, .size = 1024, .iterations = 20},
     false, false,
     "~2 ms of compute per task per iteration: the grant path is a few "
     "percent, so grant-path changes should not move it"},
    {"whatif", "lk23", {.tasks = 48, .size = 2048, .iterations = 10}, true,
     false,
     "TreeMatch + SimBackend prediction of 432 LK23 tasks on the 24x8 paper "
     "machine: placement, comm and sim do all the work"},
};

constexpr int kWarmup = 2;
/// Timed executions per run, at least (of each kind in a traced run): the
/// 90th percentile then has at least ten samples beyond it.
constexpr std::size_t kMinSamples = 110;
/// exec_p90_s (per-layer, from the traced run's untraced executions) is the
/// lower quartile of the 90th percentiles of consecutive windows of at least
/// this many executions (ten or more beyond each percentile). Host noise on
/// a shared VM comes in phases of seconds and lands in the tail first; a
/// tail the program itself causes shows in every window, the quiet quarter
/// of the run included.
constexpr std::size_t kTailWindow = 100;
/// Extra seconds a run may take to reach its minimum sample count.
constexpr double kOvertime = 60.0;
/// An execution still running after this long ends the run as failed.
constexpr double kWatchdogSeconds = 60.0;
/// Failures printed one by one; the verdict line counts all of them.
constexpr long kReportedFailures = 10;

// --- process facts -----------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int live_threads() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "Threads:") {
      int n = 0;
      in >> n;
      return n;
    }
    in.ignore(1 << 12, '\n');
  }
  return -1;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  return CPU_COUNT(&set);
}

const char* control_name(RuntimeOptions::ControlMode m) {
  switch (m) {
    case RuntimeOptions::ControlMode::Direct: return "direct";
    case RuntimeOptions::ControlMode::PerTask: return "per_task";
    case RuntimeOptions::ControlMode::SharedPool: return "shared_pool";
  }
  return "?";
}

// --- result line ---------------------------------------------------------------

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}\n";
  std::fputs(json.c_str(), stdout);
  std::fflush(stdout);
}

// --- failure accounting ----------------------------------------------------------

/// Attempted / failed executions of one run.
struct Tally {
  long attempted = 0;
  long failed = 0;

  void fail(const Spec& spec, long index, const std::string& why) {
    if (++failed <= kReportedFailures)
      std::fprintf(stderr, "perfbench: %s execution #%ld failed: %s\n",
                   spec.name, index, why.c_str());
  }
};

/// Ends the run when one execution hangs: prints the workload and the
/// execution, a failed result line, and exits non-zero.
class Watchdog {
 public:
  explicit Watchdog(const Spec& spec)
      : spec_(spec), thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// `what` is starting now; the tally is what the run has so far.
  void arm(std::string what, const Tally& tally) {
    std::lock_guard<std::mutex> lock(mu_);
    what_ = std::move(what);
    tally_ = tally;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(kWatchdogSeconds));
    armed_ = true;
  }
  void disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(200));
      if (!armed_ || std::chrono::steady_clock::now() < deadline_) continue;
      std::fprintf(stderr,
                   "perfbench: watchdog: workload %s, %s still running after "
                   "%.0f s; counted as failed, run ended\n",
                   spec_.name, what_.c_str(), kWatchdogSeconds);
      print_result(false, tally_.attempted, tally_.failed + 1, {});
      std::_Exit(3);
    }
  }

  const Spec& spec_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool armed_ = false;
  std::string what_;
  Tally tally_;
  std::chrono::steady_clock::time_point deadline_;
  std::thread thread_;  // last: started once the members above exist
};

// --- executions ------------------------------------------------------------------

/// The placement SimBackend::run derives from a plan: a bound task's
/// control thread rides on its compute PU and its data is homed there.
sim::Placement sim_placement(const place::Plan& plan) {
  sim::Placement pl;
  pl.compute_pu = plan.compute_pu;
  pl.control_pu = plan.control_pu;
  pl.data_home_pu.assign(plan.compute_pu.size(), 0);
  for (std::size_t t = 0; t < plan.compute_pu.size(); ++t) {
    const int cpu = plan.compute_pu[t];
    if (cpu < 0) continue;
    if (pl.control_pu[t] < 0) pl.control_pu[t] = cpu;
    pl.data_home_pu[t] = cpu;
  }
  return pl;
}

/// One timed execution, reduced on the spot (a kept RunReport would grow
/// the process by its metric snapshot and trace on every execution).
struct Sample {
  double exec_s = 0.0;      ///< RunReport::seconds (runtime) / run wall (sim)
  double setup_s = 0.0;     ///< build + the part of run outside exec_s
  double run_setup_s = 0.0; ///< Program::run wall − RunReport::seconds
  double cpu_s = 0.0;       ///< process CPU over Program::run
  double report_s = 0.0;    ///< RunReport::seconds
  std::uint64_t grants = 0;
  // Filled only while tracing is on:
  perfbench::TraceTotals trace;
  std::uint64_t trace_dropped = 0;
  std::uint64_t read_grants = 0;  ///< orwl.grants.read
};

class Runner {
 public:
  Runner(const Spec& spec, std::uint64_t seed)
      : spec_(spec), workload_(workloads::get(spec.registered)), seed_(seed) {
    if (spec.sim)
      backend_ = std::make_unique<SimBackend>(paper_.clone(), paper_cost_,
                                              SimBackendOptions{false, seed});
    else
      backend_ = std::make_unique<RuntimeBackend>();
  }

  /// Build the workload into `p`, placed by TreeMatch with the run's seed.
  workloads::Built build(Program& p) const {
    workloads::Built built = workload_.build(p, spec_.params);
    p.place(place::Policy::TreeMatch, {}, seed_);
    return built;
  }

  /// Build, run, time. Throws whatever the build or the run throws;
  /// returns the reason in `why` when the execution did not repeat the
  /// first one's exact counts.
  Sample execute(std::string& why) {
    Sample s;
    WallTimer build_timer;
    Program p;
    workloads::Built built = build(p);
    const double build_s = build_timer.seconds();
    const double cpu0 = cpu_seconds();
    WallTimer run_timer;
    const RunReport rep = p.run(*backend_);
    const double wall = run_timer.seconds();
    s.cpu_s = cpu_seconds() - cpu0;
    s.report_s = rep.seconds;
    s.exec_s = spec_.sim ? wall : rep.seconds;
    s.run_setup_s = spec_.sim ? 0.0 : wall - rep.seconds;
    s.setup_s = build_s + s.run_setup_s;
    s.grants = rep.grants;
    if (obs::tracing_enabled()) {
      s.trace = perfbench::reduce_trace(rep.trace);
      s.trace_dropped = rep.trace.dropped;
      s.read_grants = perfbench::counter_value(rep.metrics, "orwl.grants.read");
      perfbench::pool_histograms(rep.metrics, "orwl.acquire_ns/", acquire_ns_);
      perfbench::pool_histograms(rep.metrics, "orwl.wait_rounds/",
                                 wait_rounds_);
    }
    num_tasks_ = built.num_tasks;
    last_ = std::move(built);
    // Grant counts (and the sim's prediction) are exact: every execution
    // must repeat the first one's.
    if (!first_) {
      first_ = {rep.grants, spec_.sim ? rep.seconds : 0.0};
    } else if (rep.grants != first_->grants ||
               (spec_.sim && rep.seconds != first_->predicted)) {
      why = "grants " + std::to_string(rep.grants) + " vs " +
            std::to_string(first_->grants) + " in the first execution";
      if (spec_.sim)
        why += ", predicted " + std::to_string(rep.seconds) + " vs " +
               std::to_string(first_->predicted);
    }
    return s;
  }

  /// Built::verify on the backend's latest execution.
  bool verify_last(std::string& why) { return last_.verify(*backend_, why); }

  /// whatif: re-run the same Program on an emulating SimBackend so the
  /// location contents exist, and check them against the sequential
  /// reference and the prediction against the timed executions'.
  bool verify_emulated(std::string& why) {
    SimBackend emu(paper_.clone(), paper_cost_, SimBackendOptions{true, seed_});
    Program p;
    workloads::Built built = build(p);
    const RunReport rep = p.run(emu);
    if (first_ && rep.seconds != first_->predicted) {
      why = "emulated prediction differs from the timed executions'";
      return false;
    }
    return built.verify(emu, why);
  }

  /// Seconds SimBackend predicts for this workload on `topo` under
  /// TreeMatch (the whatif executions' own answer on the paper machine).
  double predict(const topo::Topology& topo) const {
    if (spec_.sim && first_ && &topo == &paper_) return first_->predicted;
    SimBackend sb(topo.clone(), sim::LinkCost::defaults_for(topo),
                  SimBackendOptions{false, seed_});
    Program p;
    build(p);
    return p.run(sb).seconds;
  }

  /// The topology placement runs on: the host, or the paper machine.
  [[nodiscard]] const topo::Topology& topology() const {
    return spec_.sim ? paper_
                     : static_cast<RuntimeBackend&>(*backend_).topology();
  }
  [[nodiscard]] const topo::Topology& paper() const { return paper_; }
  [[nodiscard]] const sim::LinkCost& paper_cost() const { return paper_cost_; }
  [[nodiscard]] int num_tasks() const { return num_tasks_; }
  /// Pooled orwl.acquire_ns/* and orwl.wait_rounds/* of the traced
  /// executions.
  [[nodiscard]] const obs::HistogramSnapshot& acquire_ns() const {
    return acquire_ns_;
  }
  [[nodiscard]] const obs::HistogramSnapshot& wait_rounds() const {
    return wait_rounds_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const workloads::Workload& workload() const {
    return workload_;
  }

 private:
  struct Exact {
    std::uint64_t grants = 0;
    double predicted = 0.0;
  };
  const Spec& spec_;
  const workloads::Workload& workload_;
  std::uint64_t seed_;
  topo::Topology paper_ = topo::Topology::paper_machine();
  sim::LinkCost paper_cost_ = sim::LinkCost::defaults_for(paper_);
  std::unique_ptr<Backend> backend_;
  workloads::Built last_;
  std::optional<Exact> first_;
  int num_tasks_ = 0;
  obs::HistogramSnapshot acquire_ns_;
  obs::HistogramSnapshot wait_rounds_;
};

/// One execution with failure accounting and the watchdog armed.
std::optional<Sample> attempt(const Spec& spec, Runner& runner, Tally& tally,
                              Watchdog& dog, bool verify) {
  const long index = tally.attempted++;
  dog.arm("execution #" + std::to_string(index), tally);
  std::string why;
  std::optional<Sample> s;
  try {
    s = runner.execute(why);
    if (why.empty() && verify && !runner.verify_last(why) && why.empty())
      why = "verify failed";  // Built::verify gave no reason
  } catch (const std::exception& e) {
    why = std::string("exception: ") + e.what();
  }
  dog.disarm();
  if (why.empty()) return s;
  tally.fail(spec, index, why);
  return std::nullopt;
}

/// Executions for `seconds` (at least `min_samples` per kind), after
/// `warmup` verified ones. With `alternate`, every other execution runs
/// with tracing and detailed metrics on and lands in `traced`, so host
/// phases hit traced and untraced executions alike. `last_ok` tells
/// whether the final execution succeeded.
struct Samples {
  std::vector<Sample> plain;
  std::vector<Sample> traced;
};
Samples timed_loop(const Spec& spec, Runner& runner, Tally& tally,
                   Watchdog& dog, double seconds, std::size_t min_samples,
                   bool alternate, bool& last_ok) {
  // Warmups are verified wherever the backend holds location contents;
  // whatif's are checked by verify_rest's emulated execution instead.
  for (int w = 0; w < kWarmup; ++w)
    attempt(spec, runner, tally, dog, !spec.sim);
  Samples out;
  const auto enough = [&] {
    return out.plain.size() >= min_samples &&
           (!alternate || out.traced.size() >= min_samples);
  };
  bool traced = false;
  WallTimer clock;
  while ((clock.seconds() < seconds || !enough()) &&
         clock.seconds() < seconds + kOvertime) {
    // The gates flip between executions, when no runtime thread runs.
    obs::enable_tracing(traced);
    obs::enable_detailed_metrics(traced);
    std::optional<Sample> s =
        attempt(spec, runner, tally, dog, spec.verify_each);
    last_ok = s.has_value();
    if (s) (traced ? out.traced : out.plain).push_back(std::move(*s));
    traced = alternate && !traced;
  }
  obs::enable_tracing(false);
  obs::enable_detailed_metrics(false);
  return out;
}

std::vector<double> column(const std::vector<Sample>& samples,
                           double Sample::*field) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(s.*field);
  return v;
}

/// The 90th percentile of each of the consecutive windows of `v` (in
/// execution order, each at least kTailWindow long; one window when `v` is
/// shorter).
std::vector<double> window_p90s(const std::vector<double>& v) {
  const std::size_t windows = std::max<std::size_t>(1, v.size() / kTailWindow);
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first =
        v.begin() + static_cast<std::ptrdiff_t>(w * v.size() / windows);
    const auto last =
        v.begin() + static_cast<std::ptrdiff_t>((w + 1) * v.size() / windows);
    tails.push_back(perfbench::percentile({first, last}, 0.9));
  }
  return tails;
}

/// One verification outside an execution, under the watchdog; an
/// exception or a mismatch counts execution `index` as failed.
template <class F>
void check_once(const Spec& spec, Tally& tally, Watchdog& dog, long index,
                const std::string& what, F&& check) {
  dog.arm(what, tally);
  std::string why;
  bool ok = false;
  try {
    ok = check(why);
  } catch (const std::exception& e) {
    why = std::string("exception: ") + e.what();
  }
  dog.disarm();
  if (!ok) tally.fail(spec, index, why.empty() ? "verify failed" : why);
}

/// Checks what timed_loop did not verify; returns the verdict line.
std::string verify_rest(const Spec& spec, Runner& runner, Tally& tally,
                        Watchdog& dog, bool last_ok) {
  if (spec.sim) {
    const long index = tally.attempted++;
    check_once(spec, tally, dog, index,
               "emulated verification (execution #" + std::to_string(index) +
                   ")",
               [&](std::string& why) { return runner.verify_emulated(why); });
    return "one emulated SimBackend execution checked by Built::verify; "
           "every execution's prediction and grant count compared to the "
           "first";
  }
  if (spec.verify_each) return "every execution checked by Built::verify";
  if (last_ok)
    check_once(spec, tally, dog, tally.attempted - 1,
               "verification of the last execution",
               [&](std::string& why) { return runner.verify_last(why); });
  return "Built::verify on the first execution (warmup) and the last one; "
         "every execution's grant count compared to the first";
}

// --- the two kinds of run ------------------------------------------------------------

std::vector<Metric> untraced_run(const Spec& spec, Runner& runner,
                                 Tally& tally, Watchdog& dog, double seconds,
                                 std::string& verdict) {
  bool last_ok = false;
  const std::vector<Sample> samples =
      timed_loop(spec, runner, tally, dog, seconds, kMinSamples, false, last_ok)
          .plain;
  const double rss = peak_rss_mb();
  verdict = verify_rest(spec, runner, tally, dog, last_ok);

  std::printf("perfbench: %zu timed executions, %d warmup\n", samples.size(),
              kWarmup);
  return {
      {"exec_s", perfbench::median(column(samples, &Sample::exec_s)), "s"},
      {"setup_s", perfbench::median(column(samples, &Sample::setup_s)), "s"},
      {"cpu_s", perfbench::median(column(samples, &Sample::cpu_s)), "s"},
      {"ok_frac",
       tally.attempted == 0
           ? 0.0
           : 1.0 - static_cast<double>(tally.failed) /
                       static_cast<double>(tally.attempted),
       "frac"},
      {"rss_peak_mb", rss, "MB"},
      {"predicted_s", runner.predict(runner.paper()), "sim_s"},
  };
}

template <class F>
double median_time(int reps, F&& call) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    call();
    v.push_back(t.seconds());
  }
  return perfbench::median(std::move(v));
}

std::vector<Metric> traced_run(const Spec& spec, Runner& runner, Tally& tally,
                               Watchdog& dog, double seconds,
                               std::string& verdict) {
  dog.arm("layer rungs", tally);
  std::vector<Metric> out = perfbench::run_rungs();
  dog.disarm();
  const auto add = [&out](std::string name, double v, std::string unit) {
    out.push_back({std::move(name), v, std::move(unit)});
  };

  // Timed calls into each layer, on the workload's own program.
  add("workloads.build_s", median_time(9, [&] {
        Program p;
        (void)runner.workload().build(p, spec.params);
      }),
      "s");
  Program p;
  runner.build(p);
  comm::CommMatrix matrix;
  add("comm.matrix_s", median_time(9, [&] { matrix = p.static_comm_matrix(); }),
      "s");
  place::Plan plan;
  add("treematch.map_s", median_time(5, [&] {
        plan = place::compute_plan(place::Policy::TreeMatch, runner.topology(),
                                   matrix, {}, runner.seed());
      }),
      "s");
  {
    // The prediction's own layer, on the paper machine: the placement of
    // the workload there, then sim::simulate on the derived load.
    const place::Plan paper_plan =
        spec.sim ? plan
                 : place::compute_plan(place::Policy::TreeMatch, runner.paper(),
                                       matrix, {}, runner.seed());
    const SimBackend sb(runner.paper().clone(), runner.paper_cost());
    const sim::Workload load = sb.workload(p);
    const sim::Placement pl = sim_placement(paper_plan);
    add("sim.simulate_s", median_time(5, [&] {
          (void)sim::simulate(runner.paper(), runner.paper_cost(), load, pl,
                              runner.seed());
        }),
        "s");
  }

  // Untraced and traced executions of the workload, alternating.
  bool last_ok = false;
  const Samples both =
      timed_loop(spec, runner, tally, dog, seconds, kMinSamples, true, last_ok);
  const std::vector<Sample>& plain = both.plain;
  const std::vector<Sample>& traced = both.traced;
  verdict = verify_rest(spec, runner, tally, dog, last_ok);
  const std::vector<double> plain_execs = column(plain, &Sample::exec_s);
  const double plain_exec = perfbench::median(plain_execs);
  const std::vector<double> tails = window_p90s(plain_execs);
  const std::size_t per_window = plain.size() / tails.size();
  std::printf("perfbench: exec_p90_s over %zu untraced executions in %zu "
              "windows of %zu+ (%zu+ beyond each window's 90th percentile)\n",
              plain.size(), tails.size(), per_window,
              per_window - static_cast<std::size_t>(std::ceil(
                               0.9 * static_cast<double>(per_window))));
  std::printf("perfbench: window 90th percentiles (ms):");
  for (const double t : tails) std::printf(" %.2f", 1e3 * t);
  std::printf("\n");
  add("exec_p90_s", perfbench::percentile(tails, 0.25), "s");
  add("runtime.setup_s",
      perfbench::median(column(plain, &Sample::run_setup_s)), "s");
  add("sim.residual",
      spec.sim || plain_exec <= 0.0
          ? 0.0
          : (runner.predict(runner.topology()) - plain_exec) / plain_exec,
      "frac");

  std::vector<double> wait_frac, hop_frac, batch_frac, releases, grants;
  std::uint64_t dropped = 0;
  for (const Sample& s : traced) {
    const perfbench::TraceTotals& tt = s.trace;
    dropped += s.trace_dropped;
    grants.push_back(static_cast<double>(s.grants));
    releases.push_back(static_cast<double>(tt.releases));
    const double busy = runner.num_tasks() * s.report_s * 1e9;
    wait_frac.push_back(spec.sim || busy <= 0.0 ? 0.0 : tt.acquire_ns / busy);
    hop_frac.push_back(tt.grants == 0 ? 0.0
                                      : static_cast<double>(tt.hop_grants) /
                                            static_cast<double>(tt.grants));
    batch_frac.push_back(s.read_grants == 0
                             ? 0.0
                             : static_cast<double>(tt.batched_reads) /
                                   static_cast<double>(s.read_grants));
  }
  add("grants", perfbench::median(grants), "count");
  add("releases", perfbench::median(releases), "count");
  add("grant_wait_frac", perfbench::median(wait_frac), "frac");
  add("grant_wait_p50_ns",
      static_cast<double>(runner.acquire_ns().quantile(0.50)), "ns");
  add("grant_wait_p99_ns",
      static_cast<double>(runner.acquire_ns().quantile(0.99)), "ns");
  add("wait_rounds_p95",
      static_cast<double>(runner.wait_rounds().quantile(0.95)), "count");
  add("control_hop_frac", perfbench::median(hop_frac), "frac");
  add("grant_batch_frac", perfbench::median(batch_frac), "frac");
  const double traced_exec = perfbench::median(column(traced, &Sample::exec_s));
  add("obs.trace_overhead", plain_exec > 0.0 ? traced_exec / plain_exec : 0.0,
      "ratio");
  add("obs.trace_dropped", static_cast<double>(dropped), "count");
  std::printf("perfbench: %zu untraced + %zu traced executions, %d warmup\n",
              plain.size(), traced.size(), kWarmup);
  return out;
}

// --- main ---------------------------------------------------------------------------

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "       %s --list\n",
               argv0, argv0);
  return 2;
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

void print_stamp(const Spec& spec, std::uint64_t seed, double seconds,
                 bool trace) {
  const RuntimeOptions o;
  std::printf("perfbench: workload %s = %s tasks=%d size=%ld iterations=%d "
              "on %s, TreeMatch placement\n",
              spec.name, spec.registered, spec.params.tasks, spec.params.size,
              spec.params.iterations,
              spec.sim ? "SimBackend(paper_machine)" : "RuntimeBackend(host)");
  std::printf("perfbench: seed %llu, %g s, trace %d\n",
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  std::printf("perfbench: host %s, nproc %d, numa nodes %d, build %s\n",
              sim::host_fingerprint().c_str(), online_cpus(),
              mem::NumaInfo::host().num_nodes(), PERFBENCH_BUILD_TYPE);
  std::printf("perfbench: runtime options control=%s wait=%s "
              "inline_idle_delivery=%d batch_grants=%d record_flows=%d "
              "memory=%s\n",
              control_name(o.control), sync::to_string(o.wait).c_str(),
              o.inline_idle_delivery ? 1 : 0, o.batch_grants ? 1 : 0,
              o.record_flows ? 1 : 0, mem::to_string(o.memory));
  std::printf("perfbench: live threads at start %d\n", live_threads());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list") {
      for (const Spec& s : kSpecs) std::printf("%-8s %s\n", s.name, s.why);
      return 0;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  const Spec* spec = find_spec(workload);
  if (spec == nullptr || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    if (spec == nullptr)
      std::fprintf(stderr, "perfbench: unknown workload '%s' (--list)\n",
                   workload.c_str());
    return usage(argv[0]);
  }

  Spec run_spec = *spec;
  if (trace == 1 && spec->traced_iterations > 0)
    run_spec.params.iterations = spec->traced_iterations;
  print_stamp(run_spec, seed, seconds, trace == 1);
  Tally tally;
  std::string verdict;
  std::vector<Metric> metrics;
  {
    Watchdog dog(run_spec);
    Runner runner(run_spec, seed);
    metrics = trace == 1
                  ? traced_run(run_spec, runner, tally, dog, seconds, verdict)
                  : untraced_run(run_spec, runner, tally, dog, seconds,
                                 verdict);
  }

  bool correct = tally.failed == 0 && tally.attempted > 0;
  for (const Metric& m : metrics) {
    std::printf("  %-22s %-14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      correct = false;
    }
  }
  std::printf("perfbench: verification: %s; %ld of %ld executions failed "
              "-> %s\n",
              verdict.c_str(), tally.failed, tally.attempted,
              correct ? "correct" : "NOT correct");
  std::printf("perfbench: live threads at end %d\n", live_threads());
  for (Metric& m : metrics)
    if (!std::isfinite(m.value)) m.value = 0.0;
  print_result(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}
