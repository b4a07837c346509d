// The traced run: driver::run_experiment's stack rebuilt from the public
// classes, with timing decorators at the layer boundaries and a stepped
// clock whose every step's host time is attributed to one layer.
//
// Span tree of a traced pass (self time = span minus its children):
//   setup        topology, distance provider, cluster, DFS + job specs
//   loop         the stepping loop; its self time is the loop's own
//                bookkeeping between steps (trace.unattributed_frac)
//     step       one Simulation::step(); its remainder after the children
//                below goes to net.flow when the step changed the flow
//                state (active transfers, delivered bytes or a background
//                resample), otherwise to mapreduce
//       sched    TaskScheduler::on_heartbeat
//         distance  DistanceProvider::distance inside a heartbeat
//       distance    DistanceProvider::distance outside a heartbeat
//       workload    ArrivalSource::next (the streaming pump)
//   summary      the result summary
//
// Distance queries are counted one by one but timed on a fixed 1-in-N
// sample (timing all of them would double that layer), corrected for the
// cost of the clock reads measured in place (see DistanceTiming). Spans
// are aggregated in memory and reported when the pass ends.
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "mrs/control/admission.hpp"
#include "mrs/control/fault_injector.hpp"
#include "mrs/core/pna_scheduler.hpp"
#include "mrs/mapreduce/failure_injector.hpp"
#include "mrs/net/distance.hpp"
#include "mrs/sim/network_service.hpp"
#include "mrs/sim/simulation.hpp"
#include "mrs/workload/profiles.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace mrs;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDistanceSampleEvery = 64;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timed sample of distance queries. Every kDistanceSampleEvery-th query
/// is sampled, and samples alternate between timing the query and timing
/// an empty region at the same spot: a hop lookup takes a few ns, less
/// than the clock reads around it, so their in-place cost is measured and
/// subtracted rather than assumed.
struct DistanceTiming {
  std::uint64_t query_ns = 0;  ///< timed queries
  std::uint64_t queries = 0;
  std::uint64_t empty_ns = 0;  ///< timed empty regions
  std::uint64_t empties = 0;

  /// Mean cost of the clock reads alone.
  [[nodiscard]] double clock_ns() const {
    return empties > 0 ? static_cast<double>(empty_ns) /
                             static_cast<double>(empties)
                       : 0.0;
  }
  /// Host seconds of all queries that `timed_ns` over `timed` sampled
  /// queries stand for (each timed query is one in 2N).
  [[nodiscard]] double estimate_s(std::uint64_t timed_ns,
                                  std::uint64_t timed) const {
    return (static_cast<double>(timed_ns) -
            static_cast<double>(timed) * clock_ns()) *
           static_cast<double>(2 * kDistanceSampleEvery) * 1e-9;
  }
};

/// What the decorators record; the step loop reads the deltas.
struct Probes {
  bool in_heartbeat = false;
  std::uint64_t sched_ns = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t useful_heartbeats = 0;
  std::uint64_t distance_queries = 0;
  DistanceTiming distance_in;   ///< queries made inside a heartbeat
  DistanceTiming distance_out;  ///< queries made outside a heartbeat
  std::uint64_t next_ns = 0;
  std::uint64_t arrivals = 0;
};

class TimedScheduler final : public mapreduce::TaskScheduler {
 public:
  TimedScheduler(mapreduce::TaskScheduler* inner, Probes* probes)
      : inner_(inner), probes_(probes) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }

  void on_heartbeat(mapreduce::Engine& engine, NodeId node) override {
    const std::size_t budget =
        engine.map_budget_left() + engine.reduce_budget_left();
    probes_->in_heartbeat = true;
    const auto t0 = Clock::now();
    inner_->on_heartbeat(engine, node);
    probes_->sched_ns += ns_between(t0, Clock::now());
    probes_->in_heartbeat = false;
    ++probes_->heartbeats;
    if (engine.map_budget_left() + engine.reduce_budget_left() < budget) {
      ++probes_->useful_heartbeats;
    }
  }
  void on_job_finished(mapreduce::Engine& engine, JobId job) override {
    inner_->on_job_finished(engine, job);
  }
  void set_telemetry(telemetry::Registry* registry) override {
    inner_->set_telemetry(registry);
  }
  void set_decision_log(trace::DecisionLog* log) override {
    inner_->set_decision_log(log);
  }

 private:
  mapreduce::TaskScheduler* inner_;
  Probes* probes_;
};

class CountingDistance final : public net::DistanceProvider {
 public:
  CountingDistance(const net::DistanceProvider* inner, Probes* probes)
      : inner_(inner), probes_(probes) {}

  [[nodiscard]] double distance(NodeId a, NodeId b,
                                Seconds now) const override {
    const std::uint64_t i = probes_->distance_queries++;
    if (i % kDistanceSampleEvery != 0) return inner_->distance(a, b, now);
    DistanceTiming& t = probes_->in_heartbeat ? probes_->distance_in
                                              : probes_->distance_out;
    const auto t0 = Clock::now();
    if ((i / kDistanceSampleEvery) % 2 == 1) {
      t.empty_ns += ns_between(t0, Clock::now());
      ++t.empties;
      return inner_->distance(a, b, now);
    }
    const double d = inner_->distance(a, b, now);
    t.query_ns += ns_between(t0, Clock::now());
    ++t.queries;
    return d;
  }
  [[nodiscard]] bool is_static() const override { return inner_->is_static(); }

 private:
  const net::DistanceProvider* inner_;
  Probes* probes_;
};

class TimedArrivals final : public workload::ArrivalSource {
 public:
  TimedArrivals(workload::ArrivalSource* inner, Probes* probes)
      : inner_(inner), probes_(probes) {}

  [[nodiscard]] std::optional<workload::Arrival> next() override {
    const auto t0 = Clock::now();
    auto a = inner_->next();
    probes_->next_ns += ns_between(t0, Clock::now());
    if (a) ++probes_->arrivals;
    return a;
  }

 private:
  workload::ArrivalSource* inner_;
  Probes* probes_;
};

void require_supported(const driver::ExperimentConfig& cfg) {
  const bool ok =
      cfg.scheduler == driver::SchedulerKind::kPna && !cfg.hetero.enabled() &&
      cfg.submit_times.empty() && !cfg.emit_nonlinearity_override &&
      !cfg.naive_scheduler_path && !cfg.naive_flow_solver &&
      cfg.failures.cluster_mtbf <= 0.0 && !cfg.net_faults.enabled() &&
      cfg.trace_path.empty() && cfg.sample_period == 0.0 &&
      cfg.telemetry_path.empty() && cfg.perfetto_path.empty() &&
      !cfg.enable_tracing && cfg.causal_trace_path.empty();
  if (!ok) {
    throw std::invalid_argument(
        "traced stack: config uses a feature the benchmark does not mirror");
  }
}

// As driver::run_experiment builds it.
net::Topology make_topology(const driver::ExperimentConfig& cfg) {
  if (cfg.fat_tree_k != 0) {
    return net::make_fat_tree({cfg.fat_tree_k, cfg.host_link});
  }
  if (cfg.racks == 1) return net::make_single_rack(cfg.nodes, cfg.host_link);
  net::TreeTopologyConfig tree;
  tree.racks = cfg.racks;
  tree.hosts_per_rack = (cfg.nodes + cfg.racks - 1) / cfg.racks;
  tree.host_link = cfg.host_link;
  tree.uplink = cfg.rack_uplink;
  return net::make_multi_rack_tree(tree);
}

/// driver::run_experiment's stack, restricted to the features the
/// benchmark's workloads use (require_supported). With `probes` null it is
/// the plain stack, used to time set-up; otherwise the scheduler, distance
/// provider and arrival source sit behind timing decorators.
class Stack {
 public:
  Stack(const Workload& w, Probes* probes, LayerProfile* layers)
      : w_(w), cfg_(w.config), root_(cfg_.seed), probes_(probes) {
    require_supported(cfg_);
    LayerProfile scratch;
    LayerProfile& L = layers != nullptr ? *layers : scratch;
    const auto start = Clock::now();

    auto t = start;
    topo_ = std::make_unique<net::Topology>(make_topology(cfg_));
    if (cfg_.background.mean_utilization > 0.0 ||
        cfg_.background.burst_probability > 0.0 ||
        cfg_.distance_mode == driver::DistanceMode::kInverseRate ||
        cfg_.distance_mode == driver::DistanceMode::kWeightedPerLink) {
      cond_ = std::make_unique<net::LinkConditionModel>(
          topo_.get(), cfg_.background, root_.split("background"));
    }
    L.topology_s = seconds_since(t);

    t = Clock::now();
    store_ = std::make_unique<dfs::BlockStore>(topo_->host_count());
    placer_ = std::make_unique<dfs::BlockPlacer>(topo_.get(),
                                                 root_.split("placement"));
    std::vector<mapreduce::JobSpec> specs;
    if (!w.streamed()) {
      specs = workload::make_batch(cfg_.jobs, *store_, *placer_,
                                   cfg_.workload);
    }
    L.make_batch_s = seconds_since(t);

    simulation_ = std::make_unique<sim::Simulation>();
    t = Clock::now();
    cluster_ = std::make_unique<cluster::Cluster>(topo_.get(), cfg_.node,
                                                  root_.split("cluster"));
    L.cluster_s = seconds_since(t);
    network_ = std::make_unique<sim::NetworkService>(
        simulation_.get(), topo_.get(), cond_.get());
    network_->set_flow_solver_threads(cfg_.flow_solver_threads);

    t = Clock::now();
    distance_ = make_distance();
    L.hop_matrix_s = seconds_since(t);
    const net::DistanceProvider* distance = distance_.get();
    if (probes_ != nullptr) {
      counting_ = std::make_unique<CountingDistance>(distance, probes_);
      distance = counting_.get();
    }

    engine_ = std::make_unique<mapreduce::Engine>(
        simulation_.get(), cluster_.get(), store_.get(), network_.get(),
        distance, cfg_.engine, root_.split("engine"));
    failures_ = std::make_unique<mapreduce::FailureInjector>(
        simulation_.get(), engine_.get(), cluster_.get(), cfg_.failures,
        root_.split("failures"));
    net_faults_ = std::make_unique<control::NetworkFaultInjector>(
        simulation_.get(), network_.get(), cond_.get(), topo_.get(),
        cfg_.net_faults, root_.split("netfaults"),
        [engine = engine_.get()] { return engine->all_jobs_complete(); });

    for (auto& spec : specs) {
      engine_->submit(std::move(spec),
                      root_.split("job" + std::to_string(job_index_++)));
    }
    if (w.streamed()) {
      reader_ = std::make_unique<workload::TraceStreamReader>(
          w.trace_path, w.gen.duration);
      source_ = reader_.get();
      if (probes_ != nullptr) {
        timed_source_ = std::make_unique<TimedArrivals>(source_, probes_);
        source_ = timed_source_.get();
      }
      engine_->open_stream();
      pending_ = source_->next();
    }

    scheduler_ = std::make_unique<core::PnaScheduler>(
        cfg_.pna, root_.split("scheduler"));
    mapreduce::TaskScheduler* sched = scheduler_.get();
    if (probes_ != nullptr) {
      timed_scheduler_ = std::make_unique<TimedScheduler>(sched, probes_);
      sched = timed_scheduler_.get();
    }
    engine_->set_scheduler(sched);
    if (cfg_.enable_admission) {
      admission_ =
          std::make_unique<control::AdmissionController>(cfg_.admission);
      engine_->set_admission(admission_.get());
    }
    if (cfg_.enable_telemetry) {
      engine_->set_telemetry(&registry_);
      sched->set_telemetry(&registry_);
      if (admission_) admission_->set_telemetry(&registry_);
    }

    // Streamed arrivals are run, not set-up, including the first lookahead
    // window submitted here: its size is a Poisson count, so counting it
    // would make set-up work depend on the seed.
    double setup = seconds_since(start);
    if (w.streamed()) pump();
    t = Clock::now();
    engine_->start();
    failures_->start();
    net_faults_->start();
    L.setup_s = setup + seconds_since(t);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Drive the clock step by step to the end (or past max_sim_time) and
  /// attribute each step's host time.
  void run_stepped(LayerProfile& L) {
    Probes& p = *probes_;
    const Probes before = p;  // set-up's share (the initial pump window)
    // Seconds; a step whose children's estimate exceeds its span leaves the
    // excess in `excess` (the residual) instead of a negative remainder.
    double step = 0.0, flow = 0.0, mapreduce = 0.0, excess = 0.0;
    double distance_out_total = 0.0;
    const auto loop0 = Clock::now();
    while (true) {
      const std::size_t active0 = network_->active_transfers();
      const Bytes bytes0 = network_->flows().bytes_delivered();
      const std::uint64_t epoch0 = cond_ ? cond_->resample_epoch() : 0;
      const std::uint64_t sched0 = p.sched_ns;
      const std::uint64_t next0 = p.next_ns;
      const DistanceTiming out0 = p.distance_out;
      const auto s0 = Clock::now();
      if (!simulation_->step()) break;
      const double span = static_cast<double>(ns_between(s0, Clock::now())) *
                          1e-9;
      step += span;

      const double distance_out = p.distance_out.estimate_s(
          p.distance_out.query_ns - out0.query_ns,
          p.distance_out.queries - out0.queries);
      distance_out_total += distance_out;
      const double children =
          static_cast<double>((p.sched_ns - sched0) + (p.next_ns - next0)) *
              1e-9 +
          distance_out;
      double rest = span - children;
      if (rest < 0.0) {
        excess -= rest;
        rest = 0.0;
      }
      const std::size_t active = network_->active_transfers();
      if (active != active0 ||
          network_->flows().bytes_delivered() != bytes0 ||
          (cond_ && cond_->resample_epoch() != epoch0)) {
        flow += rest;
        ++L.flow_events;
      } else {
        mapreduce += rest;
      }
      L.peak_active_flows = std::max<std::uint64_t>(L.peak_active_flows,
                                                    active);
      L.peak_pending = std::max<std::uint64_t>(L.peak_pending,
                                               simulation_->pending_count());
      if (simulation_->now() > cfg_.max_sim_time) break;
    }
    L.loop_s = seconds_since(loop0);
    L.step_s = step;
    L.flow_s = flow;
    L.mapreduce_s = mapreduce;
    L.residual_s = -excess;

    const double in_s = p.distance_in.estimate_s(
        p.distance_in.query_ns - before.distance_in.query_ns,
        p.distance_in.queries - before.distance_in.queries);
    L.distance_s = in_s + distance_out_total;
    L.distance_queries = p.distance_queries;
    L.sched_self_s =
        static_cast<double>(p.sched_ns - before.sched_ns) * 1e-9 - in_s;
    L.heartbeats = p.heartbeats;
    L.useful_heartbeats = p.useful_heartbeats;
    L.next_s = static_cast<double>(p.next_ns - before.next_ns) * 1e-9;
    L.arrivals = p.arrivals;
    L.events = simulation_->processed_count();
  }

  /// The records and counters the checks and metrics read, extracted as
  /// driver::run_experiment does.
  [[nodiscard]] driver::ExperimentResult results() const {
    driver::ExperimentResult r;
    r.completed = engine_->all_jobs_complete();
    r.task_records = engine_->task_records();
    r.job_records = engine_->job_records();
    if (!r.completed) {
      auto unfinished = engine_->unfinished_job_records();
      r.job_records.insert(r.job_records.end(),
                           std::make_move_iterator(unfinished.begin()),
                           std::make_move_iterator(unfinished.end()));
    }
    for (const auto& j : r.job_records) {
      r.makespan = std::max(r.makespan, j.finish_time);
    }
    r.events_processed = simulation_->processed_count();
    r.jobs_rejected = engine_->jobs_rejected();
    r.jobs_aborted = engine_->jobs_aborted();
    if (admission_) {
      r.admission_outcomes.assign(admission_->outcomes().begin(),
                                  admission_->outcomes().end());
    }
    r.telemetry = registry_.snapshot();
    return r;
  }

 private:
  std::unique_ptr<net::DistanceProvider> make_distance() {
    switch (cfg_.distance_mode) {
      case driver::DistanceMode::kHops:
        return std::make_unique<net::HopDistanceProvider>(*topo_);
      case driver::DistanceMode::kInverseRate:
        return std::make_unique<net::RateDistanceProvider>(
            cond_.get(), net::RateDistanceProvider::Form::kBottleneck);
      case driver::DistanceMode::kWeightedPerLink:
        return std::make_unique<net::RateDistanceProvider>(
            cond_.get(), net::RateDistanceProvider::Form::kPerLinkSum);
      case driver::DistanceMode::kLoadAware:
        return std::make_unique<net::LoadAwareDistanceProvider>(
            topo_.get(), &network_->flows(), cond_.get());
    }
    throw std::invalid_argument("unknown distance mode");
  }

  // driver::run_experiment's streaming pump: submit every arrival within
  // `lookahead` of the clock, then re-arm at (next arrival - lookahead).
  void pump() {
    const Seconds now = simulation_->now();
    while (pending_ && pending_->time <= now + w_.lookahead) {
      mapreduce::JobSpec spec = workload::make_job_spec(
          pending_->job, workload::profile_for(pending_->job.kind), *store_,
          *placer_, cfg_.workload, pending_->time);
      engine_->submit(std::move(spec),
                      root_.split("job" + std::to_string(job_index_++)));
      pending_ = source_->next();
    }
    if (!pending_) {
      engine_->close_stream();
      return;
    }
    simulation_->schedule_at(std::max(now, pending_->time - w_.lookahead),
                             [this] { pump(); });
  }

  const Workload& w_;
  const driver::ExperimentConfig& cfg_;
  const Rng root_;
  Probes* probes_;

  // Declared in build order; destroyed in reverse, consumers first.
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<net::LinkConditionModel> cond_;
  std::unique_ptr<dfs::BlockStore> store_;
  std::unique_ptr<dfs::BlockPlacer> placer_;
  std::unique_ptr<sim::Simulation> simulation_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<sim::NetworkService> network_;
  std::unique_ptr<net::DistanceProvider> distance_;
  std::unique_ptr<CountingDistance> counting_;
  std::unique_ptr<mapreduce::Engine> engine_;
  std::unique_ptr<mapreduce::FailureInjector> failures_;
  std::unique_ptr<control::NetworkFaultInjector> net_faults_;
  std::unique_ptr<workload::TraceStreamReader> reader_;
  std::unique_ptr<TimedArrivals> timed_source_;
  workload::ArrivalSource* source_ = nullptr;
  std::optional<workload::Arrival> pending_;
  std::unique_ptr<core::PnaScheduler> scheduler_;
  std::unique_ptr<TimedScheduler> timed_scheduler_;
  std::unique_ptr<control::AdmissionController> admission_;
  telemetry::Registry registry_;
  std::size_t job_index_ = 0;
};

}  // namespace

TracedPass run_traced(const Workload& w) {
  TracedPass out;
  LayerProfile& L = out.layers;
  Probes probes;
  Stack stack(w, &probes, &L);
  L.setup_rss_mib = rss_mib();
  stack.run_stepped(L);
  const driver::ExperimentResult run = stack.results();

  const auto t1 = Clock::now();
  out.outcome = summarize(w, run);
  L.summary_s = seconds_since(t1);
  check_outputs(w, run, out.outcome);

  const auto& s = run.telemetry;
  L.map_cost_evals = s.counter("pna.map.cost_evals");
  L.reduce_cost_evals = s.counter("pna.reduce.cost_evals");
  L.offers = s.counter("pna.map.attempts") + s.counter("pna.reduce.attempts");
  L.rejects = s.counter("pna.map.pmin_skips") +
              s.counter("pna.map.bernoulli_rejects") +
              s.counter("pna.reduce.pmin_skips") +
              s.counter("pna.reduce.bernoulli_rejects");
  L.task_records = run.task_records.size();
  return out;
}

double time_setup(const Workload& w) {
  LayerProfile L;
  const Stack stack(w, nullptr, &L);
  return L.setup_s;
}

}  // namespace perfbench
