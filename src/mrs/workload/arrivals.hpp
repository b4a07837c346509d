// Open-loop arrival generation for streaming (steady-state) experiments.
//
// The closed Table II batches measure makespan; an open-loop stream measures
// queueing behaviour under sustained offered load — throughput, response
// time, and the saturation knee of each scheduler. Arrivals are pre-drawn
// from a stochastic process (Poisson, 2-state MMPP, or a CSV trace) and a
// job-mix sampler over the Table II catalog, then submitted at their drawn
// times.
//
// Determinism contract: the generated sequence depends only on
// (rng stream, config) — never on the scheduler under test — so paired
// scheduler runs see byte-identical arrival streams, extending the Fig. 5
// pairing contract to the streaming regime.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mrs/common/rng.hpp"
#include "mrs/common/units.hpp"
#include "mrs/workload/table2.hpp"

namespace mrs::workload {

enum class ArrivalProcess {
  kPoisson,  ///< homogeneous Poisson arrivals at `rate_per_hour`
  kMmpp,     ///< 2-state Markov-modulated Poisson (calm/burst) arrivals
  kTrace,    ///< replay a CSV trace (time,name,kind,gb,maps,reduces,...)
};

[[nodiscard]] constexpr const char* to_string(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kMmpp: return "mmpp";
    case ArrivalProcess::kTrace: return "trace";
  }
  return "?";
}

/// How the job-mix sampler draws from the Table II catalog.
struct JobMixConfig {
  /// Relative draw weight per application kind (>= 0, not all zero).
  double wordcount_weight = 1.0;
  double terasort_weight = 1.0;
  double grep_weight = 1.0;
  /// Zipf exponent over a kind's catalog entries ordered by size: 0 draws
  /// input sizes uniformly, larger values favour small jobs — the
  /// many-small/few-huge heavy tail of production traces.
  double size_skew = 1.0;
  /// Lognormal sigma of a per-job input-size multiplier (mean-1, applied
  /// to the map count). 0 = use the catalog counts verbatim.
  double size_jitter_sigma = 0.0;
  /// Deterministic scale on map / reduce counts (e.g. 0.1 shrinks every
  /// job 10x so sweeps and tests run fast while keeping the mix shape).
  double map_count_scale = 1.0;
  double reduce_count_scale = 1.0;
};

/// 2-state MMPP: a calm state at `rate_per_hour` and a burst state at
/// `burst_rate_multiplier` times that, with exponentially distributed
/// sojourns. Same mean behaviour as Poisson at the time-averaged rate but
/// bursty at sojourn timescales.
struct MmppConfig {
  double burst_rate_multiplier = 4.0;
  Seconds mean_calm_sojourn = 600.0;
  Seconds mean_burst_sojourn = 120.0;
};

/// One tenant's arrival process in a multi-tenant stream. Each tenant
/// draws its own arrival clock and job mix from dedicated RNG children
/// ("tenant<i>-times" / "tenant<i>-mix"), so adding or reconfiguring one
/// tenant never perturbs another tenant's stream — the isolation bench
/// relies on the steady tenant's arrivals being invariant while the
/// bursty neighbour's load sweeps.
struct TenantConfig {
  std::string name;  ///< label for output; "" = "tenant<i>"
  ArrivalProcess process = ArrivalProcess::kPoisson;  ///< kTrace invalid
  double rate_per_hour = 60.0;
  MmppConfig mmpp;
  JobMixConfig mix;
  /// Fair-share weight stamped onto every job of this tenant (> 0).
  double weight = 1.0;
};

struct ArrivalConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Mean arrival rate of the calm/base state, in jobs per hour.
  double rate_per_hour = 60.0;
  /// Arrival horizon: no arrivals are generated at or after this time.
  Seconds duration = 3600.0;
  MmppConfig mmpp;
  JobMixConfig mix;
  /// CSV file to replay when process == kTrace.
  std::string trace_path;
  /// Multi-tenant streams: when non-empty, each tenant generates its own
  /// sub-stream (tenant i's jobs are tagged TenantId(i)) and the merged
  /// sequence replaces the single-tenant process/rate/mmpp/mix fields
  /// above (duration still applies to every tenant).
  std::vector<TenantConfig> tenants;
};

/// One pre-drawn arrival: a catalog-derived job entering at `time`.
struct Arrival {
  Seconds time = 0.0;
  JobDescription job;
};

[[nodiscard]] bool operator==(const Arrival& a, const Arrival& b);

/// Draw one job from the catalog mix (kind by weight, size rank by Zipf,
/// mean-1 lognormal size jitter). Exposed so trace generators can share
/// the exact sampler the synthetic processes use.
[[nodiscard]] JobDescription draw_mix_job(const JobMixConfig& mix, Rng& rng);

/// Draw the full arrival sequence for `cfg` from `rng`. Arrivals are
/// sorted by time; job names are suffixed "#<seq>" so every arrival is
/// uniquely identifiable (and pairable across schedulers). For kTrace the
/// file is loaded, entries beyond cfg.duration are dropped, and job ids
/// are renumbered so they stay contiguous after the cut.
[[nodiscard]] std::vector<Arrival> generate_arrivals(const ArrivalConfig& cfg,
                                                     const Rng& rng);

/// Load an arrival trace CSV with a header row of
///   time,name,kind,gb,maps,reduces,tenant,weight
/// (kind is Wordcount | Terasort | Grep | Custom). Legacy 5-column
/// (time,name,kind,maps,reduces) and 7-column (...,tenant,weight) files
/// still load, with gb defaulting to 0, tenant to 0 and weight to 1.
/// Fields follow RFC-4180 quoting (commas, quotes and newlines in names
/// survive). Lines starting with '#' and blank lines are skipped; rows
/// are sorted by time on load and job ids assigned contiguously from 1.
/// Numbers must fill their field and be finite (parse_finite,
/// parse_count). Throws std::runtime_error with a path:line prefix on
/// malformed rows.
[[nodiscard]] std::vector<Arrival> load_arrival_trace(
    const std::string& path);

/// Write `arrivals` in the canonical 8-column load_arrival_trace format
/// (round-trips exactly, including nominal_gb, tenant and weight).
void save_arrival_trace(const std::string& path,
                        std::span<const Arrival> arrivals);

/// Pull-based arrival iterator: the streaming driver consumes arrivals one
/// at a time, so million-job traces never sit fully in memory. Sources
/// must yield arrivals in non-decreasing time order with contiguous job
/// ids from 1 (in yield order).
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  /// Next arrival, or nullopt once the stream is exhausted. Must not be
  /// called again after returning nullopt.
  [[nodiscard]] virtual std::optional<Arrival> next() = 0;
};

/// Adapter exposing a pre-drawn arrival vector as an ArrivalSource.
class BufferedArrivalSource final : public ArrivalSource {
 public:
  explicit BufferedArrivalSource(std::vector<Arrival> arrivals)
      : arrivals_(std::move(arrivals)) {}
  [[nodiscard]] std::optional<Arrival> next() override {
    if (pos_ >= arrivals_.size()) return std::nullopt;
    return arrivals_[pos_++];
  }

 private:
  std::vector<Arrival> arrivals_;
  std::size_t pos_ = 0;
};

/// Streaming trace reader: parses one CSV record per next() call, holding
/// O(1) trace state (one record) regardless of trace length. Accepts the
/// same formats as load_arrival_trace but requires the file to already be
/// sorted by time (throws on out-of-order rows — a streaming reader cannot
/// sort). Rows at or after `horizon` end the stream. Job ids are assigned
/// contiguously from 1 in row order, matching what load_arrival_trace
/// produces on a sorted file.
class TraceStreamReader final : public ArrivalSource {
 public:
  explicit TraceStreamReader(
      const std::string& path,
      Seconds horizon = std::numeric_limits<double>::infinity());
  ~TraceStreamReader() override;
  TraceStreamReader(const TraceStreamReader&) = delete;
  TraceStreamReader& operator=(const TraceStreamReader&) = delete;

  [[nodiscard]] std::optional<Arrival> next() override;
  /// Number of arrivals yielded so far (== last job id handed out).
  [[nodiscard]] std::size_t rows_yielded() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Drain `source` to a trace CSV in the canonical 8-column format,
/// holding one record in memory at a time. Returns the row count.
std::size_t write_arrival_trace(const std::string& path,
                                ArrivalSource& source);

}  // namespace mrs::workload
