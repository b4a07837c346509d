// Command-line front ends: pnats_sim and trace_analyze run as child
// processes.
//
// Malformed input, including a path that cannot be opened, must exit with
// status 2 (never crash, hang or run with a silently truncated value), the
// stream-mode header must report the cluster that was built, and every
// flag the docs put on a pnats_sim command line must be one that
// `pnats_sim --help` lists.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Exit {
  int status = 0;      ///< waitpid status
  std::string output;  ///< stdout and stderr, interleaved

  [[nodiscard]] bool exited_with(int code) const {
    return WIFEXITED(status) && WEXITSTATUS(status) == code;
  }
};

/// Run `bin args...`, killing it (SIGALRM) if it outlives `timeout_s`.
/// A non-zero `address_space` caps the child's virtual memory (bytes).
Exit run(const char* bin, const std::vector<std::string>& args,
         unsigned timeout_s = 60, rlim_t address_space = 0) {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) return {-1, "pipe failed"};
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv{const_cast<char*>(bin)};
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    alarm(timeout_s);  // survives exec: a hung child dies by signal
    if (address_space > 0) {
      const rlimit limit{address_space, address_space};
      setrlimit(RLIMIT_AS, &limit);  // survives exec too
    }
    execv(bin, argv.data());
    _exit(127);
  }
  close(fds[1]);
  Exit e;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    e.output.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  waitpid(pid, &e.status, 0);
  return e;
}

// A sanitizer runtime reserves terabytes of shadow address space, so a
// sanitized child cannot start under an address-space cap.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PNATS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PNATS_SANITIZED 1
#endif
#endif
#ifdef PNATS_SANITIZED
constexpr rlim_t kRunawayMemoryCap = 0;
#else
constexpr rlim_t kRunawayMemoryCap = rlim_t{2} << 30;  // 2 GiB
#endif

Exit sim(const std::vector<std::string>& args) {
  return run(PNATS_SIM_BIN, args);
}

/// Flags `pnats_sim --help` lists, one per row: "  --name ..." lines and
/// the "-h, --help" row.
std::vector<std::string> help_flags() {
  std::istringstream in(sim({"--help"}).output);
  std::vector<std::string> flags;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("  --", 0) == 0) {
      flags.push_back(line.substr(2, line.find(' ', 2) - 2));
    } else if (line.rfind("  -h, --help", 0) == 0) {
      flags.emplace_back("--help");
    }
  }
  return flags;
}

TEST(Cli, HelpExitsZeroAndListsEachFlagOnce) {
  const Exit e = sim({"--help"});
  EXPECT_TRUE(e.exited_with(0)) << e.output;
  const auto flags = help_flags();
  EXPECT_GT(flags.size(), 60u);
  std::set<std::string> seen;
  for (const auto& f : flags) EXPECT_TRUE(seen.insert(f).second) << f;
  EXPECT_TRUE(sim({"-h"}).exited_with(0));
}

TEST(Cli, MalformedNumbersExitTwo) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--nodes", "abc"}, {"--nodes", "12x"}, {"--nodes", "-1"},
      {"--pmin", "nan"},  {"--rate", "inf"},  {"--seed", "1.5"}};
  for (const auto& [flag, text] : cases) {
    const Exit e = sim({"--batch", "grep", "--quiet", flag, text});
    EXPECT_TRUE(e.exited_with(2)) << flag << " " << text << ": " << e.output;
    EXPECT_NE(e.output.find(flag + ": bad number '" + text + "'"),
              std::string::npos)
        << e.output;
  }
}

TEST(Cli, MalformedInputExitsTwo) {
  const std::vector<std::vector<std::string>> cases = {
      {"--bogus"},
      {"--nodes"},
      {"--scheduler", "nope"},
      {"--fat-tree", "3"},
      {"--class-speeds", "2"},
      {"--node-classes", "a,b", "--class-slots", "2/1"},
      {"--stream-trace"},
  };
  for (const auto& args : cases) {
    const Exit e = sim(args);
    EXPECT_TRUE(e.exited_with(2)) << args[0] << ": " << e.output;
  }
}

TEST(Cli, MalformedJobsFileExitsTwoNamingTheRow) {
  const fs::path file = fs::path(PNATS_CLI_OUT_DIR) / "cli_bad_jobs.csv";
  std::ofstream(file) << "name,kind,maps,reduces\nok,Grep,4,2\n"
                         "bad,Grep,-1,2\n";
  const Exit e = sim({"--jobs-file", file.string(), "--nodes", "12",
                      "--quiet"});
  EXPECT_TRUE(e.exited_with(2)) << e.output;
  EXPECT_NE(e.output.find(file.string() + ":3: bad integer value '-1'"),
            std::string::npos)
      << e.output;
}

TEST(Cli, OutOfRangeNumbersExitTwoNamingTheFlag) {
  // Each value parses but is outside what the run accepts; the first
  // flag of each row is the one the message must name.
  const std::vector<std::vector<std::string>> cases = {
      {"--nodes", "0"},
      {"--racks", "0"},
      {"--replication", "0"},
      {"--pmin", "1.5"},
      {"--pmin", "-1"},
      {"--straggler-p", "2"},
      {"--repair-jitter", "1.5"},
      {"--net-repair-jitter", "2", "--link-mtbf", "100"},
      {"--link-repair", "0", "--link-mtbf", "100"},
      {"--switch-repair", "-1", "--switch-mtbf", "100"},
      {"--surge-duration", "0", "--surge", "100"},
      {"--admission-rate", "0", "--admission", "token-bucket"},
      {"--probation", "-5", "--blacklist"},
      {"--blacklist-failures", "0", "--blacklist"},
      {"--racks", "5"},  // 12 nodes do not split evenly into 5 racks
  };
  for (const auto& flags : cases) {
    std::vector<std::string> args = {"--batch", "grep", "--nodes", "12",
                                     "--seed", "1", "--quiet"};
    args.insert(args.end(), flags.begin(), flags.end());
    const Exit e = sim(args);
    EXPECT_TRUE(e.exited_with(2)) << flags[0] << " " << flags[1] << ": "
                                  << e.output;
    EXPECT_NE(e.output.find(flags[0]), std::string::npos) << e.output;
  }
}

TEST(Cli, FlowThreadsAboveTheHardwareThreadsExitTwo) {
  // Rejected while parsing, so no solver thread is ever started.
  const std::string too_many =
      std::to_string(std::max(1u, std::thread::hardware_concurrency()) + 1);
  const Exit e = sim({"--batch", "grep", "--nodes", "12", "--seed", "1",
                      "--quiet", "--flow-threads", too_many});
  EXPECT_TRUE(e.exited_with(2)) << e.output;
  EXPECT_NE(e.output.find("--flow-threads"), std::string::npos) << e.output;
}

TEST(Cli, TenantQuotasNeedOnePositiveWeightPerTenant) {
  const std::vector<std::string> stream = {
      "--tenants", "2", "--nodes", "12", "--duration", "600",
      "--job-scale", "0.05", "--quiet"};
  for (const char* quotas : {"1,2,3", "1,0", "2"}) {
    auto args = stream;
    args.insert(args.end(), {"--tenant-quotas", quotas});
    const Exit e = sim(args);
    EXPECT_TRUE(e.exited_with(2)) << quotas << ": " << e.output;
  }
  auto ok = stream;
  ok.insert(ok.end(), {"--tenant-quotas", "1,2"});
  EXPECT_TRUE(sim(ok).exited_with(0));
}

TEST(Cli, StreamHeaderReportsTheBuiltFatTree) {
  const Exit e = sim({"--fat-tree", "4", "--arrivals", "poisson",
                      "--duration", "600", "--job-scale", "0.05"});
  EXPECT_TRUE(e.exited_with(0)) << e.output;
  EXPECT_NE(e.output.find("| 16 nodes x 1 racks |"), std::string::npos)
      << e.output;
}

TEST(Cli, StreamRunsPastTwoToTheSeventeenSeconds) {
  // Past 2^17 simulated seconds a flow's last bytes can take less than half
  // an ulp of the clock. The run must keep moving and drain, not re-arm one
  // instant until memory runs out (capped at 2 GiB where it can be).
  const Exit e = run(PNATS_SIM_BIN,
                     {"--arrivals", "poisson", "--rate", "30", "--job-scale",
                      "0.05", "--duration", "140000", "--quiet"},
                     60, kRunawayMemoryCap);
  EXPECT_TRUE(e.exited_with(0)) << e.output;
  EXPECT_NE(e.output.find("drained=yes"), std::string::npos) << e.output;
}

TEST(Cli, StreamWithNoArrivalsExitsTwo) {
  // Ten seconds at the default rate draw no job: a message, not an abort.
  const Exit e = sim({"--nodes", "12", "--arrivals", "poisson", "--duration",
                      "10", "--job-scale", "0.02", "--quiet"});
  EXPECT_TRUE(e.exited_with(2)) << e.output;
  EXPECT_NE(e.output.find("pnats_sim: the arrival stream drew no jobs"),
            std::string::npos)
      << e.output;
}

TEST(Cli, PnaAliasSelectsTheProbabilisticScheduler) {
  const Exit e = sim({"--scheduler", "pna", "--arrivals", "poisson",
                      "--nodes", "12", "--duration", "600", "--job-scale",
                      "0.05", "--quiet"});
  EXPECT_TRUE(e.exited_with(0)) << e.output;
  EXPECT_EQ(e.output.rfind("probabilistic: drained=yes", 0), 0u) << e.output;
}

TEST(Cli, TraceAnalyzeRejectsAMalformedTop) {
  const std::string trace =
      (fs::path(PNATS_CLI_OUT_DIR) / "cli_top.causal.jsonl").string();
  ASSERT_TRUE(sim({"--arrivals", "poisson", "--nodes", "12", "--duration",
                   "600", "--job-scale", "0.05", "--quiet", "--trace-out",
                   trace})
                  .exited_with(0));
  EXPECT_TRUE(run(PNATS_TRACE_ANALYZE_BIN, {trace, "--top", "3"})
                  .exited_with(0));
  for (const char* top : {"abc", "3x", "-1", ""}) {
    const Exit e = run(PNATS_TRACE_ANALYZE_BIN, {trace, "--top", top});
    EXPECT_TRUE(e.exited_with(2)) << "'" << top << "': " << e.output;
  }
}

TEST(Cli, UnopenablePathsExitTwoNamingThePath) {
  // A path below a regular file can be neither created nor read.
  const fs::path file = fs::path(PNATS_CLI_OUT_DIR) / "cli_not_a_dir";
  std::ofstream(file) << "x\n";
  const std::string bad = (file / "x").string();
  const std::vector<std::vector<std::string>> cases = {
      {"--trace-out", bad},
      {"--telemetry-out", bad},
      {"--perfetto-out", bad},
      {"--trace", bad},
      {"--out", bad},
      {"--arrivals", "trace", "--arrival-trace", bad},
      {"--arrivals", "trace", "--arrival-trace", bad, "--stream-trace"},
  };
  for (const auto& flags : cases) {
    std::vector<std::string> args = {"--batch", "grep", "--nodes", "12",
                                     "--seed", "1", "--quiet"};
    args.insert(args.end(), flags.begin(), flags.end());
    const Exit e = sim(args);
    const std::string& flag = *(std::find(flags.begin(), flags.end(), bad) - 1);
    EXPECT_TRUE(e.exited_with(2)) << flag << ": " << e.output;
    EXPECT_NE(e.output.find(bad), std::string::npos)
        << flag << ": " << e.output;
  }
}

/// Every "--flag" on a pnats_sim command line in `path`; backslash
/// continuations join lines, and a " #" comment or a " |" pipe ends one.
std::vector<std::string> documented_flags(const fs::path& path) {
  constexpr const char* kFlagChars = "-abcdefghijklmnopqrstuvwxyz0123456789";
  std::ifstream in(path);
  std::vector<std::string> flags;
  std::string command;
  for (std::string line; std::getline(in, line);) {
    command += line;
    if (!line.empty() && line.back() == '\\') {
      command.pop_back();
      continue;
    }
    for (auto at = command.find("pnats_sim --"); at != std::string::npos;
         at = command.find("pnats_sim --", at + 1)) {
      std::string rest = command.substr(at + 10);
      rest = rest.substr(0, std::min(rest.find(" #"), rest.find(" |")));
      std::istringstream words(rest);
      for (std::string w; words >> w;) {
        if (w.rfind("--", 0) != 0) continue;
        flags.push_back(w.substr(0, w.find_first_not_of(kFlagChars)));
      }
    }
    command.clear();
  }
  return flags;
}

TEST(Cli, DocumentedFlagsAreListedByHelp) {
  const fs::path root = PNATS_SOURCE_DIR;
  std::vector<fs::path> files = {root / "README.md", root / "EXPERIMENTS.md",
                                 root / "tools" / "ci.sh"};
  for (const auto& entry : fs::directory_iterator(root / "docs")) {
    if (entry.path().extension() == ".md") files.push_back(entry.path());
  }
  const auto listed = help_flags();
  const std::set<std::string> help(listed.begin(), listed.end());
  std::size_t checked = 0;
  for (const auto& file : files) {
    for (const auto& flag : documented_flags(file)) {
      EXPECT_TRUE(help.count(flag)) << file << " uses " << flag
                                    << ", which pnats_sim --help lacks";
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);  // the scan found the documented commands
}

}  // namespace
