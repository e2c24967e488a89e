// Command line of `ledger` and `ledger_trace` (README.md, "Running").
//
//   ledger [--workload=NAME] [--seed=N] [--seconds=S] [--out=F.json]
//          [--data-dir=DIR] [--smoke] [--ingest-parallelism=N]
//
// Without --workload every workload runs, each in its own child process so
// that one workload's allocator state and threads cannot leak into the
// next. Each output line reads `workload metric value unit n=<samples>`;
// the last line of a single-workload run is its JSON record.

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ledger.h"

namespace ledger {
namespace {

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

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- Machine stamp ---------------------------------------------------------

struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

/// The aggregate "cpu" line of /proc/stat; steal is its eighth field.
CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return t;
  for (int i = 0; i < 10; ++i) {
    uint64_t v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::string CpuInfoField(const std::string& key) {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "";
}

/// The scan-kernel backend the engine's auto-detection picks (or the
/// CUBRICK_SIMD override), derived from the CPU flags.
std::string SimdBackend() {
  const char* env = std::getenv("CUBRICK_SIMD");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "auto") != 0) {
    return env;
  }
#if defined(__aarch64__)
  return "neon";
#else
  const std::string flags = " " + CpuInfoField("flags") + " ";
  return flags.find(" avx2 ") != std::string::npos ? "avx2" : "scalar";
#endif
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Numbers from a machine that cannot show 4-way parallelism are recorded
/// but marked, so nobody compares them with a capable run.
std::string Stamp(const CpuTimes& start) {
  const CpuTimes end = ReadCpuTimes();
  const double total = static_cast<double>(end.total - start.total);
  const double steal =
      total > 0 ? static_cast<double>(end.steal - start.steal) / total : 0;
  const int cores = Cores();
  const bool capable = cores >= 4;
  std::string s = "{\"cores\": " + std::to_string(cores) +
                  ", \"cpu_model\": " + JsonString(CpuInfoField("model name")) +
                  ", \"simd_backend\": " + JsonString(SimdBackend()) +
                  ", \"compiler\": " + JsonString(Compiler()) +
                  ", \"steal_share\": " + JsonNumber(steal) +
                  ", \"capable\": " + (capable ? "true" : "false");
  if (!capable) {
    s += ", \"reason\": \"nproc is " + std::to_string(cores) +
         ", below the 4 the pinned configuration uses\"";
  }
  return s + "}";
}

// --- Output ----------------------------------------------------------------

void PrintLines(const Report& r) {
  for (const Metric& m : r.metrics) {
    std::printf("%s %s %.6g %s n=%llu\n", r.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& e : r.errors) {
    std::printf("%s CHECK FAILED: %s\n", r.workload.c_str(), e.c_str());
  }
}

std::string ReportJson(const Report& r, const RunConfig& cfg,
                       const std::string& stamp) {
  std::string s = "{\"workload\": " + JsonString(r.workload) +
                  ", \"seed\": " + std::to_string(cfg.seed) +
                  ", \"seconds\": " + JsonNumber(cfg.seconds) +
                  ", \"traced\": " + (Traced() ? "true" : "false") +
                  ", \"ingest_parallelism\": " +
                  std::to_string(cfg.ingest_parallelism) +
                  ", \"correct\": " + (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    s += (i ? ", " : "") + JsonString(r.errors[i]);
  }
  s += "], \"stamp\": " + stamp + ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    s += (i ? ", " : "") + JsonString(m.name) +
         ": {\"value\": " + JsonNumber(m.value) +
         ", \"unit\": " + JsonString(m.unit) +
         ", \"n\": " + std::to_string(m.samples) + "}";
  }
  return s + "}}";
}

/// The --out file: run-level fields plus one record per workload.
bool WriteOut(const std::string& path, const RunConfig& cfg,
              const std::string& stamp,
              const std::vector<std::pair<std::string, std::string>>& runs) {
  std::ofstream out(path);
  out << "{\"seed\": " << cfg.seed << ", \"seconds\": "
      << JsonNumber(cfg.seconds)
      << ", \"traced\": " << (Traced() ? "true" : "false")
      << ", \"smoke\": " << (cfg.smoke ? "true" : "false")
      << ", \"ingest_parallelism\": " << cfg.ingest_parallelism
      << ", \"stamp\": " << stamp << ", \"workloads\": {";
  for (size_t i = 0; i < runs.size(); ++i) {
    out << (i ? ", " : "") << JsonString(runs[i].first) << ": "
        << runs[i].second;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

// --- Child processes -------------------------------------------------------

/// Runs this binary on one workload; echoes its output and returns its last
/// line (the JSON record) and exit status.
int RunChild(const std::vector<std::string>& args, std::string* last_line) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::FILE* in = fdopen(fds[0], "r");
  std::string line;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), in) != nullptr) {
    line += buf;
    if (line.back() != '\n') continue;
    line.pop_back();
    if (!line.empty() && line[0] == '{') {
      *last_line = line;
    } else {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
    }
    line.clear();
  }
  std::fclose(in);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: ledger [--workload=ingest|scan|mixed|cluster] "
               "[--seed=N] [--seconds=S] [--out=F.json] [--data-dir=DIR] "
               "[--smoke] [--ingest-parallelism=N]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "ledger: refusing to measure a debug or sanitizer build; "
               "configure bench/ledger with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  RunConfig cfg;
  std::string out;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      cfg.workload = v;
    } else if (const char* v = value("--seed=")) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      cfg.seconds = std::strtod(v, nullptr);
      seconds_given = true;
    } else if (const char* v = value("--out=")) {
      out = v;
    } else if (const char* v = value("--data-dir=")) {
      cfg.data_dir = v;
    } else if (const char* v = value("--ingest-parallelism=")) {
      cfg.ingest_parallelism = std::strtoull(v, nullptr, 10);
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!seconds_given && cfg.smoke) cfg.seconds = 0.6;
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  if (cfg.ingest_parallelism == 0) {
    return Usage("--ingest-parallelism must be positive");
  }
  if (cfg.data_dir.empty()) {
    cfg.data_dir = (std::filesystem::temp_directory_path() /
                    ("ledger-data-" + std::to_string(::getpid())))
                       .string();
  }
  if (!cfg.workload.empty()) {
    const auto& names = WorkloadNames();
    if (std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
      return Usage(("unknown workload " + cfg.workload).c_str());
    }
  }

  const CpuTimes cpu_start = ReadCpuTimes();
  if (Cores() < 4) {
    std::fprintf(stderr,
                 "ledger: nproc is %d; the run is stamped \"capable\": false\n",
                 Cores());
  }

  if (!cfg.workload.empty()) {
    auto backend = MakeBackend(cfg.ingest_parallelism);
    const Report report = RunWorkload(cfg, backend.get());
    std::error_code ignored;
    std::filesystem::remove(cfg.data_dir, ignored);  // only if left empty
    PrintLines(report);
    const std::string stamp = Stamp(cpu_start);
    const std::string json = ReportJson(report, cfg, stamp);
    if (!out.empty() && !WriteOut(out, cfg, stamp, {{report.workload, json}})) {
      std::fprintf(stderr, "ledger: cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("%s\n", json.c_str());
    return report.correct ? 0 : 1;
  }

  std::vector<std::pair<std::string, std::string>> runs;
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    std::vector<std::string> args = {
        argv[0], "--workload=" + name, "--seed=" + std::to_string(cfg.seed),
        "--seconds=" + JsonNumber(cfg.seconds), "--data-dir=" + cfg.data_dir,
        "--ingest-parallelism=" + std::to_string(cfg.ingest_parallelism)};
    if (cfg.smoke) args.push_back("--smoke");
    std::string json;
    const int code = RunChild(args, &json);
    if (code != 0 || json.empty()) {
      std::fprintf(stderr, "ledger: workload %s exited with %d\n",
                   name.c_str(), code);
      ok = false;
    }
    if (!json.empty()) runs.emplace_back(name, json);
  }
  if (!out.empty() && !WriteOut(out, cfg, Stamp(cpu_start), runs)) {
    std::fprintf(stderr, "ledger: cannot write %s\n", out.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
