// melb_perfbench: runs one benchmark workload in this process and prints its
// raw measurements as JSON lines on stdout. run.py (next to this file) builds
// the driver, turns the lines into the benchmark's metrics, checks every
// output against its known answer and prints the verdict.
//
//   melb_perfbench --workload NAME --mode MODE --work DIR
//                  [--seconds S] [--seed N] [--workers W]
//
// Workloads (README.md here says why each was chosen):
//   ya4-hash     check yang-anderson n=4 {mutex, progress, rmr-bound}, hash mode
//   ya4-sym-ddd  the same with symmetry, DDD and an 8 MiB memory budget
//   sweep-lb     campaign service over every algorithm x scheduler x n=2..16
//                into a fresh journal, then one resume from it
//   zoo-n3       per correct algorithm at n=3, serially: check {mutex,
//                progress, lockout, rmr-bound}, then the state-change adversary
// Only sweep-lb reads --seed (the campaign seed); the other three are
// exhaustive explorations with nothing to draw.
//
// Modes:
//   setup  do the workload's set-up, print the "setup" record (the steady
//          clock at the first call into the layer under test) and stop
//          before that call;
//   run    repeat the workload until one more iteration would end past
//          --seconds (at least once), one "iter" record per iteration;
//   trace  the layer pass (calls that split the workload by layer, each in a
//          span), then one untraced and one traced iteration; the spans go
//          to DIR/spans.jsonl as JSON lines.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "adv/adversary.h"
#include "algo/registry.h"
#include "check/model_checker.h"
#include "check/property.h"
#include "cost/cost_model.h"
#include "exp/campaign.h"
#include "exp/report.h"
#include "exp/service.h"
#include "lb/construct.h"
#include "lb/decode.h"
#include "lb/encode.h"
#include "sim/canonical.h"
#include "sim/execution.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/permutation.h"
#include "util/prng.h"

namespace perfbench {

void set_spill_dir(const std::string& dir);  // spill_dir.cpp

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using namespace melb;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// JSON lines.
// ---------------------------------------------------------------------------

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// One flat JSON object, printed as one line.
class Record {
 public:
  explicit Record(std::string_view kind) { str("kind", kind); }

  Record& num(std::string_view key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return raw(key, buf);
  }
  Record& count(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Record& flag(std::string_view key, bool value) { return raw(key, value ? "true" : "false"); }
  Record& str(std::string_view key, std::string_view value) {
    return raw(key, json_string(value));
  }
  // `items` are already JSON values.
  Record& list(std::string_view key, const std::vector<std::string>& items) {
    std::string array = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) array += ',';
      array += items[i];
    }
    return raw(key, array + "]");
  }
  Record& raw(std::string_view key, std::string_view json) {
    if (!text_.empty()) text_ += ',';
    text_ += json_string(key);
    text_ += ':';
    text_ += json;
    return *this;
  }

  void emit() const { std::cout << '{' << text_ << "}\n" << std::flush; }

 private:
  std::string text_;
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent span and run id, kept in memory and
// written as JSON lines when the run ends. Single-threaded: every span the
// driver opens wraps a call made from the main thread.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (tracer_.enabled_) index_ = tracer_.open(std::move(name));
    }
    ~Scope() {
      if (tracer_.enabled_) tracer_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  void set_run(std::uint64_t run) { run_ = run; }
  std::size_t size() const { return spans_.size(); }

  void write_jsonl(const fs::path& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent << ",\"run\":" << s.run
          << ",\"name\":" << json_string(s.name) << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path.string());
  }

 private:
  struct Span {
    std::uint64_t parent = 0;  // id of the enclosing span, 0 = root
    std::uint64_t run = 0;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::size_t open(std::string name) {
    const std::uint64_t parent = open_.empty() ? 0 : open_.back() + 1;
    open_.push_back(spans_.size());
    spans_.push_back(Span{parent, run_, std::move(name), now_ns(), 0});
    return open_.back();
  }
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_;
  std::uint64_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

template <typename F>
auto in_span(Tracer& tracer, std::string name, F&& body) {
  const Tracer::Scope scope(tracer, std::move(name));
  return body();
}

std::string join(const std::vector<std::string>& items, char sep) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += sep;
    out += item;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Check calls shared by the check workloads.
// ---------------------------------------------------------------------------

// check::check with a fresh property list, timed (wall and process CPU) and
// recorded. The span is named after the property list so the layer pass can
// tell the prefixes apart.
check::CheckResult timed_check(std::string_view phase, Tracer& tracer,
                               const sim::Algorithm& algorithm, int n,
                               const std::vector<std::string>& specs,
                               const check::CheckOptions& options) {
  const std::string props = join(specs, ',');
  check::PropertyList properties;
  for (const auto& spec : specs) properties.push_back(check::make_property(spec, algorithm, n));
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  const auto result = in_span(tracer, "check.check[" + props + "]", [&] {
    return check::check(algorithm, n, std::move(properties), options);
  });
  const double wall = seconds_since(start);
  const double cpu = process_cpu_seconds() - cpu_start;

  std::vector<std::string> names, holds, evaluated, bounds, has_bound;
  for (const auto& report : result.property_reports) {
    names.push_back(json_string(report.property));
    holds.push_back(report.holds ? "true" : "false");
    evaluated.push_back(report.evaluated ? "true" : "false");
    bounds.push_back(std::to_string(report.bound));
    has_bound.push_back(report.has_bound ? "true" : "false");
  }
  Record("check")
      .str("phase", phase)
      .str("alg", algorithm.name())
      .count("n", static_cast<std::uint64_t>(n))
      .str("props", props)
      .count("workers", static_cast<std::uint64_t>(options.workers))
      .num("wall_s", wall)
      .num("cpu_s", cpu)
      .flag("ok", result.ok)
      .flag("exhausted_limit", result.exhausted_limit)
      .str("violation", result.violation)
      .str("io_error", result.io_error)
      .count("states", result.states)
      .count("transitions", result.transitions)
      .count("dedup_hits", result.dedup_hits)
      .count("interned_automata", result.interned_automata)
      .count("interned_regfiles", result.interned_regfiles)
      .count("peak_memory_bytes", result.peak_memory_bytes)
      .count("peak_visited_bytes", result.peak_visited_bytes)
      .count("progress_peak_bytes", result.progress_peak_bytes)
      .count("spilled_bytes", result.spilled_bytes)
      .count("ddd_runs", result.ddd_runs)
      .count("symmetry_group", result.symmetry_group)
      .list("properties", names)
      .list("holds", holds)
      .list("evaluated", evaluated)
      .list("bounds", bounds)
      .list("has_bound", has_bound)
      .emit();
  return result;
}

// The property lists the layer pass runs before the full list: every proper
// prefix of it, so each property's extra time is one difference.
std::vector<std::vector<std::string>> proper_prefixes(const std::vector<std::string>& specs) {
  std::vector<std::vector<std::string>> prefixes;
  for (std::size_t k = 1; k < specs.size(); ++k) {
    prefixes.emplace_back(specs.begin(), specs.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return prefixes;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Untimed preparation before each iteration.
  virtual void reset() {}
  // One iteration; `phase` tags its records ("run", "untraced", "traced").
  virtual void iterate(std::string_view phase, Tracer& tracer) = 0;
  // The trace mode's per-layer split of the workload.
  virtual void layer_pass(Tracer& tracer) = 0;
};

const std::vector<std::string> kYa4Properties = {"mutex", "progress", "rmr-bound:state-change"};
const std::vector<std::string> kZooProperties = {"mutex", "progress", "lockout",
                                                 "rmr-bound:state-change"};

// ya4-hash and ya4-sym-ddd: one big check of yang-anderson at n=4.
class CheckWorkload final : public Workload {
 public:
  explicit CheckWorkload(check::CheckOptions options)
      : algorithm_(algo::algorithm_by_name("yang-anderson").algorithm),
        options_(std::move(options)) {}

  void iterate(std::string_view phase, Tracer& tracer) override {
    timed_check(phase, tracer, *algorithm_, kN, kYa4Properties, options_);
  }

  void layer_pass(Tracer& tracer) override {
    for (const auto& specs : proper_prefixes(kYa4Properties)) {
      timed_check("layer", tracer, *algorithm_, kN, specs, options_);
    }
  }

 private:
  static constexpr int kN = 4;
  std::shared_ptr<const sim::Algorithm> algorithm_;
  check::CheckOptions options_;
};

// zoo-n3: every correct algorithm at n=3, serially — the full check, then
// the state-change adversary, each on the calling thread (default options:
// one worker).
class ZooWorkload final : public Workload {
 public:
  ZooWorkload() {
    for (const auto& info : algo::correct_algorithms()) algorithms_.push_back(info.algorithm);
  }

  void iterate(std::string_view phase, Tracer& tracer) override {
    for (const auto& algorithm : algorithms_) {
      const auto start = Clock::now();
      const Tracer::Scope cell(tracer, "cell");
      timed_check(phase, tracer, *algorithm, kN, kZooProperties, options_);
      const auto adv_start = Clock::now();
      const auto adv = in_span(tracer, "adv.find_worst_schedule", [&] {
        return adv::find_worst_schedule(*algorithm, kN, "state-change", adversary_options_);
      });
      const double adv_wall = seconds_since(adv_start);
      Record("adv")
          .str("phase", phase)
          .str("alg", algorithm->name())
          .num("wall_s", adv_wall)
          .flag("evaluated", adv.evaluated)
          .flag("unbounded", adv.unbounded)
          .count("bound", adv.bound)
          .count("states", adv.states)
          .count("sweeps", adv.sweeps)
          .count("witness_steps", adv.schedule.pids.size())
          .count("measured_cost", adv.measured_cost)
          .flag("confirmed", adv.confirmed)
          .emit();
      Record("cell")
          .str("phase", phase)
          .str("alg", algorithm->name())
          .num("wall_s", seconds_since(start))
          .emit();
    }
  }

  void layer_pass(Tracer& tracer) override {
    for (const auto& algorithm : algorithms_) {
      for (const auto& specs : proper_prefixes(kZooProperties)) {
        timed_check("layer", tracer, *algorithm, kN, specs, options_);
      }
    }
  }

 private:
  static constexpr int kN = 3;
  std::vector<std::shared_ptr<const sim::Algorithm>> algorithms_;
  check::CheckOptions options_;
  adv::AdversaryOptions adversary_options_;
};

// sweep-lb: the campaign service into a fresh journal, then one resume.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, int workers, fs::path journal)
      : journal_(std::move(journal)) {
    for (const auto& info : algo::all_algorithms()) {
      spec_.algorithms.push_back(info.algorithm->name());
    }
    spec_.schedulers = sim::scheduler_names();
    for (int n = 2; n <= 16; ++n) spec_.sizes.push_back(n);
    spec_.seed = seed;
    options_.run.workers = workers;
  }

  void reset() override { fs::remove_all(journal_); }

  void iterate(std::string_view phase, Tracer& tracer) override {
    const std::string dir = journal_.string();
    const auto fresh_start = Clock::now();
    const auto fresh = in_span(tracer, "exp.run_campaign_service",
                               [&] { return exp::run_campaign_service(spec_, dir, options_); });
    const double fresh_wall = seconds_since(fresh_start);
    const auto fresh_read = read_report(tracer, fresh.report);
    const auto resume_start = Clock::now();
    const auto resumed = in_span(tracer, "exp.resume",
                                 [&] { return exp::run_campaign_service(spec_, dir, options_); });
    const double resume_wall = seconds_since(resume_start);
    const auto resumed_read = read_report(tracer, resumed.report);

    std::uint64_t ok = 0, lb_attempted = 0, lb_ok = 0, sc_total = 0, steps_total = 0;
    std::vector<std::string> bad_cells, cell_wall_us;
    for (const auto& cell : fresh.report.cells) {
      ok += cell.status == "ok";
      lb_attempted += cell.lb.attempted;
      lb_ok += cell.lb.attempted && cell.lb.roundtrip_ok;
      sc_total += cell.sc_cost;
      steps_total += cell.steps;
      if (cell.status != "ok" || (cell.lb.attempted && !cell.lb.roundtrip_ok)) {
        bad_cells.push_back(std::to_string(cell.cell.index));
      }
      cell_wall_us.push_back(std::to_string(cell.wall_micros));
    }
    Record record("sweep");
    record.str("phase", phase)
        .count("seed", spec_.seed)
        .count("workers", static_cast<std::uint64_t>(fresh.report.workers_used))
        .num("fresh_s", fresh_wall)
        .num("resume_s", resume_wall)
        .num("report_s", fresh_read.seconds + resumed_read.seconds)
        .count("report_bytes", fresh_read.json_bytes)
        .count("cells", fresh.report.cells.size())
        .count("executed", fresh.executed)
        .count("ok_cells", ok)
        .count("lb_attempted", lb_attempted)
        .count("lb_ok", lb_ok)
        .count("sc_total", sc_total)
        .count("steps_total", steps_total)
        .str("hash", fresh_read.hash)
        .str("resume_hash", resumed_read.hash)
        .count("resume_cached", resumed.cached)
        .count("resume_executed", resumed.executed)
        .count("journal_segments", resumed.journal.segments)
        .count("journal_records", resumed.journal.records)
        .list("bad_cells", bad_cells)
        .list("cell_wall_us", cell_wall_us);
    if (!layer_steps_.empty()) {
      // The layer pass replays each cell's public calls; its simulator runs
      // must match the service's cell for cell.
      std::uint64_t mismatches = 0;
      for (std::size_t i = 0; i < fresh.report.cells.size(); ++i) {
        const auto& cell = fresh.report.cells[i];
        mismatches += i >= layer_steps_.size() || cell.steps != layer_steps_[i] ||
                      cell.sc_cost != layer_sc_[i];
      }
      record.count("layer_mismatches", mismatches);
    }
    record.emit();
  }

  // run_cell's public calls, cell by cell in its order, each in a span.
  void layer_pass(Tracer& tracer) override {
    // The cell seed's stream for the lower-bound permutation, as run_cell
    // derives it (exp/runner.cpp).
    constexpr std::uint64_t kPiStream = 0x70690000ULL;
    std::uint64_t delta_evaluations = 0, metasteps = 0, insertions = 0, encoding_bytes = 0,
                  decode_iterations = 0, sim_steps = 0, lb_runs = 0, lb_failures = 0;
    const auto cells = exp::expand(spec_);
    layer_steps_.assign(cells.size(), 0);
    layer_sc_.assign(cells.size(), 0);
    for (const auto& cell : cells) {
      const Tracer::Scope cell_span(tracer, "cell");
      const auto& info = algo::algorithm_by_name(cell.algorithm);
      const auto& algorithm = *info.algorithm;
      const int n = cell.n;
      const auto run = in_span(tracer, "sim.canonical_run", [&] {
        const auto scheduler = sim::make_scheduler(cell.scheduler, n, cell.seed);
        return sim::run_canonical(algorithm, n, *scheduler, spec_.mode, spec_.max_steps);
      });
      layer_steps_[cell.index] = run.steps;
      layer_sc_[cell.index] = run.sc_cost;
      sim_steps += run.steps;
      in_span(tracer, "trace.stats", [&] {
        trace::compute_stats(run.exec, n, algorithm.num_registers(n));
      });
      in_span(tracer, "sim.validate", [&] {
        sim::check_well_formed(run.exec, n);
        sim::check_mutual_exclusion(run.exec, n);
      });
      in_span(tracer, "cost.models", [&] {
        const auto sc = cost::make_cost_model("state-change", algorithm, n);
        const auto cc = cost::make_cost_model("cache-coherent", algorithm, n);
        const auto dsm = cost::make_cost_model("dsm", algorithm, n);
        cc->total_cost(run.exec, n);
        dsm->total_cost(run.exec, n);
        sc->max_process_cost(run.exec, n);
        cc->max_process_cost(run.exec, n);
      });
      if (!(spec_.lb_pipeline && info.livelock_free && info.mutex_correct && !info.uses_rmw)) {
        continue;
      }
      ++lb_runs;
      try {
        util::Xoshiro256StarStar rng(util::derive_seed(cell.seed, kPiStream));
        const auto pi = util::Permutation::random(n, rng);
        const auto construction =
            in_span(tracer, "lb.construct", [&] { return lb::construct(algorithm, n, pi); });
        const auto steps = in_span(tracer, "lb.linearize",
                                   [&] { return construction.canonical_linearization(); });
        const auto canonical = in_span(tracer, "sim.validate",
                                       [&] { return sim::validate_steps(algorithm, n, steps); });
        const auto encoding =
            in_span(tracer, "lb.encode", [&] { return lb::encode(construction); });
        const auto decoded = in_span(tracer, "lb.decode",
                                     [&] { return lb::decode(algorithm, encoding.text); });
        delta_evaluations += construction.delta_evaluations;
        metasteps += construction.metasteps.size();
        insertions += construction.insertions;
        encoding_bytes += encoding.text.size();
        decode_iterations += decoded.iterations;
        lb_failures += decoded.execution.sc_cost() != canonical.sc_cost();
      } catch (const std::exception&) {
        ++lb_failures;
      }
    }
    Record("layers")
        .count("cells", cells.size())
        .count("lb_runs", lb_runs)
        .count("lb_failures", lb_failures)
        .count("lb_delta_evaluations", delta_evaluations)
        .count("lb_metasteps", metasteps)
        .count("lb_insertions", insertions)
        .count("lb_encoding_bytes", encoding_bytes)
        .count("lb_decode_iterations", decode_iterations)
        .count("sim_steps", sim_steps)
        .emit();
  }

 private:
  struct ReportRead {
    std::string hash;
    std::size_t json_bytes = 0;
    double seconds = 0;
  };

  // to_json + report_hash: the report a sweep user reads.
  static ReportRead read_report(Tracer& tracer, const exp::CampaignReport& report) {
    ReportRead read;
    const auto start = Clock::now();
    in_span(tracer, "exp.report", [&] {
      read.json_bytes = exp::to_json(report).size();
      read.hash = exp::report_hash(report);
    });
    read.seconds = seconds_since(start);
    return read;
  }

  exp::CampaignSpec spec_;
  exp::ServiceOptions options_;
  fs::path journal_;
  std::vector<std::uint64_t> layer_steps_, layer_sc_;
};

struct Settings {
  std::string workload;
  std::string mode;
  fs::path work;
  double seconds = 10;
  std::uint64_t seed = 2026;
  int workers = 4;
};

std::unique_ptr<Workload> make_workload(const Settings& settings) {
  check::CheckOptions options;
  options.max_states = 20'000'000;
  options.workers = settings.workers;
  if (settings.workload == "ya4-hash") return std::make_unique<CheckWorkload>(options);
  if (settings.workload == "ya4-sym-ddd") {
    options.symmetry = true;
    options.ddd = true;
    options.memory_limit_mb = 8;
    return std::make_unique<CheckWorkload>(options);
  }
  if (settings.workload == "sweep-lb") {
    return std::make_unique<SweepWorkload>(settings.seed, settings.workers,
                                           settings.work / "journal");
  }
  if (settings.workload == "zoo-n3") return std::make_unique<ZooWorkload>();
  throw std::invalid_argument("unknown workload '" + settings.workload + "'");
}

Settings parse_args(int argc, char** argv) {
  Settings settings;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      settings.workload = value;
    } else if (arg == "--mode") {
      settings.mode = value;
    } else if (arg == "--work") {
      settings.work = value;
    } else if (arg == "--seconds") {
      settings.seconds = std::stod(value);
    } else if (arg == "--seed") {
      settings.seed = std::stoull(value);
    } else if (arg == "--workers") {
      settings.workers = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (settings.mode != "setup" && settings.mode != "run" && settings.mode != "trace") {
    throw std::invalid_argument("--mode must be setup, run or trace");
  }
  if (settings.work.empty()) throw std::invalid_argument("--work DIR is required");
  if (settings.workers < 1) throw std::invalid_argument("--workers must be >= 1");
  return settings;
}

std::uint64_t max_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

// One iteration outside any span, timed and recorded.
double timed_iteration(Workload& workload, std::string_view phase, Tracer& tracer,
                       std::uint64_t index) {
  workload.reset();
  const auto start = Clock::now();
  {
    const Tracer::Scope root(tracer, "workload");
    workload.iterate(phase, tracer);
  }
  const double wall = seconds_since(start);
  Record("iter").str("phase", phase).count("index", index).num("wall_s", wall).emit();
  return wall;
}

int run(const Settings& settings) {
  fs::create_directories(settings.work);
  set_spill_dir(settings.work.string());
  Record("build")
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER)
      .count("hardware_concurrency", std::thread::hardware_concurrency())
      .emit();
  const auto workload = make_workload(settings);
  Record("setup").count("first_call_ns", static_cast<std::uint64_t>(now_ns())).emit();
  if (settings.mode == "setup") return 0;

  if (settings.mode == "run") {
    Tracer off(false);
    const auto start = Clock::now();
    double last = 0;
    std::uint64_t index = 0;
    do {
      last = timed_iteration(*workload, "run", off, index++);
    } while (seconds_since(start) + last <= settings.seconds);
  } else {
    Tracer tracer(true);
    tracer.set_run(1);
    {
      const Tracer::Scope root(tracer, "layer_pass");
      workload->layer_pass(tracer);
    }
    Tracer off(false);
    timed_iteration(*workload, "untraced", off, 0);
    tracer.set_run(2);
    timed_iteration(*workload, "traced", tracer, 0);
    const fs::path spans = settings.work / "spans.jsonl";
    tracer.write_jsonl(spans);
    Record("spans").str("path", spans.string()).count("count", tracer.size()).emit();
  }
  Record("end").count("max_rss_kib", max_rss_kib()).emit();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "melb_perfbench: " << e.what() << "\n";
    return 2;
  }
}
