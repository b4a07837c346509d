// Offline analyzer for the causal trace JSONL written by
// `pnats_sim --trace-out FILE` (see docs/tracing.md).
//
// Prints what the trace says about a run without re-running it: record
// counts, placement-decision outcome totals, aggregate critical-path
// blame shares, and the top-K slowest jobs with their blamed buckets.
// Verifies the per-job blame partition (queue + network + compute +
// retry == response) and exits non-zero when any job violates it, so CI
// can smoke-test the tracer end to end.
//
//   usage: trace_analyze FILE [--top K]
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace {

// Minimal field extraction for the flat one-object-per-line JSONL the
// tracer writes (no nesting, keys unique per line) — a full JSON parser
// would be dead weight here.
std::optional<double> json_num(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const char* p = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const double v = std::strtod(p, &end);
  if (end == p) return std::nullopt;
  return v;
}

std::optional<std::string> json_str(const std::string& line,
                                    const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::string out;
  for (std::size_t i = pos + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      out += line[++i];  // keep escaped char verbatim; enough for names
      continue;
    }
    if (c == '"') return out;
    out += c;
  }
  return std::nullopt;
}

struct BlameRow {
  long job = -1;
  std::string name;
  long critical_node = -1;
  double response = 0.0;
  double queue = 0.0, network = 0.0, compute = 0.0, retry = 0.0;

  [[nodiscard]] double sum() const {
    return queue + network + compute + retry;
  }
  [[nodiscard]] const char* dominant() const {
    const double v[4] = {queue, network, compute, retry};
    const char* n[4] = {"queue", "network", "compute", "retry"};
    std::size_t best = 0;
    for (std::size_t b = 1; b < 4; ++b) {
      if (v[b] > v[best]) best = b;
    }
    return n[best];
  }
};

[[noreturn]] void usage(int code) {
  std::fputs("usage: trace_analyze FILE [--top K]\n", stderr);
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (arg == "--top") {
      if (i + 1 >= argc) usage(2);
      const char* text = argv[++i];
      char* end = nullptr;
      top = std::strtoul(text, &end, 10);
      if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0') {
        std::fprintf(stderr, "--top: bad number '%s'\n", text);
        usage(2);
      }
    } else if (path.empty()) {
      path = arg;
    } else {
      usage(2);
    }
  }
  if (path.empty()) usage(2);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_analyze: cannot open %s\n", path.c_str());
    return 2;
  }

  std::size_t jobs = 0, spans = 0, killed_spans = 0, backup_spans = 0;
  std::map<std::string, std::size_t> outcomes;
  std::size_t decisions = 0;
  std::vector<BlameRow> blames;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto type = json_str(line, "type");
    if (!type) continue;
    if (*type == "job") {
      ++jobs;
    } else if (*type == "span") {
      ++spans;
      if (json_str(line, "state").value_or("") == "killed") ++killed_spans;
      if (json_num(line, "backup").value_or(0.0) != 0.0) ++backup_spans;
    } else if (*type == "decision") {
      ++decisions;
      ++outcomes[json_str(line, "outcome").value_or("?")];
    } else if (*type == "blame") {
      BlameRow b;
      b.job = static_cast<long>(json_num(line, "job").value_or(-1.0));
      b.name = json_str(line, "name").value_or("?");
      b.critical_node =
          static_cast<long>(json_num(line, "critical_node").value_or(-1.0));
      b.response = json_num(line, "response").value_or(0.0);
      b.queue = json_num(line, "queue").value_or(0.0);
      b.network = json_num(line, "network").value_or(0.0);
      b.compute = json_num(line, "compute").value_or(0.0);
      b.retry = json_num(line, "retry").value_or(0.0);
      blames.push_back(std::move(b));
    }
  }

  std::printf("%s: %zu jobs, %zu spans (%zu killed, %zu backup), "
              "%zu decisions, %zu blames\n",
              path.c_str(), jobs, spans, killed_spans, backup_spans,
              decisions, blames.size());

  if (!outcomes.empty()) {
    std::printf("decisions:");
    for (const auto& [name, count] : outcomes) {
      std::printf(" %s=%zu", name.c_str(), count);
    }
    std::printf("\n");
  }

  // Partition check: the tracer guarantees the four buckets sum to the
  // measured response time per job — a violation means the trace (or the
  // extractor) is broken, not the run.
  double total_response = 0.0;
  double total[4] = {};
  double worst_err = 0.0;
  long worst_job = -1;
  for (const auto& b : blames) {
    total_response += b.response;
    total[0] += b.queue;
    total[1] += b.network;
    total[2] += b.compute;
    total[3] += b.retry;
    const double err = std::abs(b.sum() - b.response);
    if (err > worst_err) {
      worst_err = err;
      worst_job = b.job;
    }
  }

  if (!blames.empty()) {
    const double denom = total_response > 0.0 ? total_response : 1.0;
    std::printf("blame shares: queue=%.1f%% network=%.1f%% compute=%.1f%% "
                "retry=%.1f%% (sum=%.1f%% of %.1fs total response)\n",
                100.0 * total[0] / denom, 100.0 * total[1] / denom,
                100.0 * total[2] / denom, 100.0 * total[3] / denom,
                100.0 * (total[0] + total[1] + total[2] + total[3]) / denom,
                total_response);
    std::printf("partition check: max |sum - response| = %.3g s (job %ld)\n",
                worst_err, worst_job);

    std::vector<const BlameRow*> slow;
    slow.reserve(blames.size());
    for (const auto& b : blames) slow.push_back(&b);
    std::sort(slow.begin(), slow.end(), [](const auto* a, const auto* b) {
      return a->response > b->response;
    });
    const std::size_t k = std::min(top, slow.size());
    std::printf("top %zu slowest jobs:\n", k);
    for (std::size_t i = 0; i < k; ++i) {
      const BlameRow& b = *slow[i];
      const double d = b.response > 0.0 ? b.response : 1.0;
      std::printf("  job %-5ld %-18s %8.1fs on node %-3ld dominant=%-8s "
                  "queue=%.1f%% network=%.1f%% compute=%.1f%% retry=%.1f%%\n",
                  b.job, b.name.c_str(), b.response, b.critical_node,
                  b.dominant(), 100.0 * b.queue / d, 100.0 * b.network / d,
                  100.0 * b.compute / d, 100.0 * b.retry / d);
    }
  }

  // Tolerance scales with response magnitude (the buckets are sums of
  // many double segments).
  for (const auto& b : blames) {
    if (std::abs(b.sum() - b.response) >
        1e-6 * std::max(1.0, std::abs(b.response))) {
      std::fprintf(stderr,
                   "trace_analyze: blame partition broken for job %ld "
                   "(sum %.9g != response %.9g)\n",
                   b.job, b.sum(), b.response);
      return 1;
    }
  }
  return 0;
}
