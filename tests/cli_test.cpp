// Command-line front ends: pnats_sim and trace_analyze run as child
// processes.
//
// Malformed input must exit with status 2 (never crash, hang or run with
// a silently truncated value), the stream-mode header must report the
// cluster that was built, and every flag the docs put on a pnats_sim
// command line must be one that `pnats_sim --help` lists.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
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
Exit run(const char* bin, const std::vector<std::string>& args,
         unsigned timeout_s = 60) {
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
