//===- e2ebench.cpp - End-to-end benchmark --------------------------------===//
//
// Part of the SYCL-MLIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the end-to-end benchmark in process and prints one
/// JSON result line (the last line of stdout). It times calls into each
/// module's public API from outside:
///
///  - frontend:  `Workload::Build` (kernel builder + `importHostIR`);
///  - core:      `Compiler::compileFor` and its `CompileOutcome`;
///  - exec:      `Executable::launchKernel` (through a forwarding
///               `rt::KernelLauncher`) and `Executable::getKernelBytecode`;
///  - runtime:   `rt::runProgram`, with `prepareLaunch` marking submission;
///  - workloads: a wrapped `SourceProgram::Verify`.
///
/// Workloads:
///  - paper-gpu / paper-cpu: the paper's evaluation (38 programs x three
///    flows) on one target, closed loop with one client. Each item is
///    compiled cold, run once as a discarded warm-up, then run timed and
///    validated. The seed permutes the item order of every pass.
///  - compile-mix: compile only, four clients with one MLIRContext each,
///    a seeded skewed draw over 38 programs x 3 flows x 2 targets, with
///    the disk tier in a fresh directory.
///
/// `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
/// workload once to warm up, once untraced and once traced (same items),
/// writes the Chrome trace to `--trace-file`, and reports the per-layer
/// metrics the binary measures itself; run.py adds the ones it derives
/// from the trace.
///
//===----------------------------------------------------------------------===//

#include "bench/workloads/Workloads.h"
#include "core/CompileService.h"
#include "core/Compiler.h"
#include "exec/TargetRegistry.h"
#include "ir/MLIRContext.h"
#include "runtime/Runtime.h"
#include "support/Telemetry.h"
#include "transform/Passes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

extern char **environ;

using namespace smlir;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point Start, Clock::time_point End) {
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

double msSince(Clock::time_point Start) {
  return msBetween(Start, Clock::now());
}

/// CPU time in ms. The end-to-end metrics are CPU times: on a shared
/// virtual machine the wall clock also counts time the hypervisor gives
/// to other guests (steal), which varies from run to run and is no cost
/// of the program. Both exclude it; the report also shows wall time.
double cpuMs(clockid_t Which) {
  timespec T;
  clock_gettime(Which, &T);
  return T.tv_sec * 1e3 + T.tv_nsec / 1e6;
}
/// All threads of the process (the scheduler's workers included).
double processCpuMs() { return cpuMs(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuMs() { return cpuMs(CLOCK_THREAD_CPUTIME_ID); }

/// The host's speed while the run measures. CPU time excludes steal, but
/// the same work still costs 10-30% more CPU time while other guests load
/// the physical core, and that load drifts over minutes. A fixed
/// calibration loop that shares no code with the program runs between
/// items on the measuring threads; the end-to-end metrics are CPU times
/// scaled to a host on which one slice takes RefSliceMs. The report also
/// shows the unscaled times.
class HostSpeed {
public:
  static constexpr double RefSliceMs = 1.0;

  /// Runs one calibration slice on the calling thread; returns its CPU
  /// time, which the caller leaves out of its own measurements.
  double sample() {
    thread_local std::vector<uint32_t> Table(1 << 16);
    double Start = threadCpuMs();
    uint32_t X = 12345;
    for (int Round = 0; Round < 8; ++Round)
      for (size_t I = 0; I < Table.size(); ++I) {
        X = X * 1664525u + 1013904223u;
        Table[(X >> 16) & (Table.size() - 1)] += X ^ Table[I];
      }
    volatile uint32_t Sink = Table[X & (Table.size() - 1)];
    (void)Sink;
    double Ms = threadCpuMs() - Start;
    std::lock_guard<std::mutex> Lock(M);
    SumMs += Ms;
    ++Count;
    return Ms;
  }

  double meanSliceMs() const {
    std::lock_guard<std::mutex> Lock(M);
    return Count ? SumMs / Count : RefSliceMs;
  }
  /// Converts this host's CPU milliseconds into reference milliseconds.
  double scale() const { return RefSliceMs / meanSliceMs(); }

private:
  mutable std::mutex M;
  double SumMs = 0.0;
  uint64_t Count = 0;
};
/// Slices between the measured items, and after each set-up sample (the
/// set-up runs on another thread than compile-mix's clients).
HostSpeed Speed, SetupSpeed;

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// 1-based nearest rank of percentile \p Permille / 1000 among \p N.
size_t percentileRank(size_t N, unsigned Permille) {
  return (Permille * N + 999) / 1000;
}

/// Whether \p N samples leave at least ten beyond the percentile, so the
/// tail it names is measured rather than one outlier.
bool hasPercentile(size_t N, unsigned Permille) {
  size_t Rank = percentileRank(N, Permille);
  return Rank != 0 && N - Rank >= 10;
}

/// Regularized incomplete beta function I_x(a, b), by Lentz's continued
/// fraction.
double incompleteBeta(double X, double A, double B) {
  if (X <= 0.0)
    return 0.0;
  if (X >= 1.0)
    return 1.0;
  if (X > (A + 1.0) / (A + B + 2.0))
    return 1.0 - incompleteBeta(1.0 - X, B, A);
  double LogFront = std::lgamma(A + B) - std::lgamma(A) - std::lgamma(B) +
                    A * std::log(X) + B * std::log1p(-X);
  const double Tiny = 1e-300;
  double C = 1.0, D = 1.0 - (A + B) * X / (A + 1.0);
  D = 1.0 / (std::fabs(D) < Tiny ? Tiny : D);
  double F = D;
  for (int M = 1; M <= 500; ++M) {
    for (int Half = 0; Half < 2; ++Half) {
      double Num = Half == 0 ? M * (B - M) * X / ((A + 2 * M - 1) * (A + 2 * M))
                             : -(A + M) * (A + B + M) * X /
                                   ((A + 2 * M) * (A + 2 * M + 1));
      D = 1.0 + Num * D;
      D = 1.0 / (std::fabs(D) < Tiny ? Tiny : D);
      C = 1.0 + Num / C;
      if (std::fabs(C) < Tiny)
        C = Tiny;
      F *= C * D;
    }
    if (std::fabs(C * D - 1.0) < 1e-12)
      break;
  }
  return std::exp(LogFront) * F / A;
}

/// Percentile \p Permille / 1000 of \p Samples as the Harrell-Davis
/// estimate: a weighted mean of the order statistics around the rank. A
/// single order statistic of a few hundred heterogeneous programs is one
/// program's time, so it carries that one sample's noise; the weighted
/// mean averages the neighbours. Reported only when hasPercentile holds.
std::optional<double> percentile(std::vector<double> Samples,
                                 unsigned Permille) {
  size_t N = Samples.size();
  if (!hasPercentile(N, Permille))
    return std::nullopt;
  std::sort(Samples.begin(), Samples.end());
  double Q = Permille / 1000.0;
  double A = Q * (N + 1), B = (1.0 - Q) * (N + 1);
  // Weights outside twelve standard deviations of Beta(A, B) vanish.
  double Mean = A / (A + B);
  double Sd = std::sqrt(A * B / ((A + B) * (A + B) * (A + B + 1.0)));
  double Sum = 0.0, Prev = 0.0;
  for (size_t I = 1; I <= N; ++I) {
    double X = static_cast<double>(I) / N;
    double Cur = X < Mean - 12 * Sd   ? 0.0
                 : X > Mean + 12 * Sd ? 1.0
                                      : incompleteBeta(X, A, B);
    Sum += (Cur - Prev) * Samples[I - 1];
    Prev = Cur;
  }
  return Sum;
}

double median(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  if (N == 0)
    return 0.0;
  return N % 2 ? Samples[N / 2] : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

/// Total length of the union of [start, end] intervals.
double unionLength(std::vector<std::pair<double, double>> Intervals) {
  std::sort(Intervals.begin(), Intervals.end());
  double Total = 0.0, CurStart = 0.0, CurEnd = -1.0;
  bool Open = false;
  for (auto [Start, End] : Intervals) {
    if (!Open || Start > CurEnd) {
      if (Open)
        Total += CurEnd - CurStart;
      CurStart = Start;
      CurEnd = End;
      Open = true;
    } else {
      CurEnd = std::max(CurEnd, End);
    }
  }
  if (Open)
    Total += CurEnd - CurStart;
  return Total;
}

/// splitmix64: derives independent, reproducible streams from one seed.
uint64_t mixSeed(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits (the same on every
/// standard library, unlike std::uniform_real_distribution).
double unit(std::mt19937_64 &Rng) {
  return static_cast<double>(Rng() >> 11) * 0x1.0p-53;
}

/// Fisher-Yates with the draw above, for a portable permutation.
template <typename T> void shuffle(std::vector<T> &V, std::mt19937_64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(unit(Rng) * I)]);
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// One named metric of the result line.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Everything one run prints: the result line plus a human-readable
/// report (stderr) of the workload-level metrics with their sample counts.
struct Result {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Report;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void report(const std::string &Name, double Value, const char *Unit,
              size_t Samples) {
    char Line[160];
    std::snprintf(Line, sizeof(Line), "  %-24s %14.4f %-6s (n=%zu)",
                  Name.c_str(), Value, Unit, Samples);
    Report.push_back(Line);
  }
  /// Reports a percentile, or says why it was withheld.
  void reportPercentile(const std::string &Name,
                        const std::vector<double> &Samples,
                        unsigned Permille) {
    if (auto P = percentile(Samples, Permille))
      report(Name, *P, "ms", Samples.size());
    else
      Report.push_back("  " + Name + "  withheld: fewer than ten samples "
                       "beyond it (n=" + std::to_string(Samples.size()) + ")");
  }

  void print() const {
    for (const std::string &Line : Report)
      std::fprintf(stderr, "%s\n", Line.c_str());
    std::string Out = "{\"correct\": ";
    Out += Correct ? "true" : "false";
    Out += ", \"attempted\": " + std::to_string(Attempted);
    Out += ", \"failed\": " + std::to_string(Failed);
    Out += ", \"metrics\": {";
    for (size_t I = 0; I < Metrics.size(); ++I) {
      char Num[64];
      std::snprintf(Num, sizeof(Num), "%.17g",
                    std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0);
      Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
             Num + ", \"unit\": \"" + Metrics[I].Unit + "\"}";
    }
    Out += "}}";
    std::printf("%s\n", Out.c_str());
    std::fflush(stdout);
  }
};

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

//===----------------------------------------------------------------------===//
// Spans around layer calls
//===----------------------------------------------------------------------===//

/// A benchmark span around one call into a layer. \p Cat is
/// "bench.<layer>"; every span of one request carries the request's
/// telemetry::nextId() as its "request" argument.
class LayerSpan {
public:
  LayerSpan(std::string_view Name, const char *Cat, uint64_t Request)
      : S(Name, Cat) {
    if (S.isActive())
      S.arg("request", Request);
  }
  telemetry::Span &get() { return S; }

private:
  telemetry::Span S;
};

//===----------------------------------------------------------------------===//
// Programs (frontend layer) and the wrapped validation
//===----------------------------------------------------------------------===//

/// Counts and times every wrapped Verify call while Active is set.
/// Validation runs on the thread that calls runProgram (one client), so
/// the probe is plain data.
struct VerifyProbe {
  bool Active = false;
  uint64_t Request = 0;
  double Ms = 0.0;
  uint64_t Failed = 0;
  /// Test hook: the program whose validation is forced to fail.
  std::string ForceFail;
};
VerifyProbe Probe;

/// Every program, built into a context of its own. Not assignable: the
/// programs must die before their context, which member-wise assignment
/// would not guarantee.
struct ProgramSet {
  ProgramSet() = default;
  ProgramSet(const ProgramSet &) = delete;
  ProgramSet &operator=(const ProgramSet &) = delete;

  std::unique_ptr<MLIRContext> Ctx; ///< Declared first: destroyed last.
  std::vector<frontend::SourceProgram> Programs;
  double BuildMs = 0.0;
};

/// Builds every workload into a fresh context, timing each Build call,
/// and wraps each program's Verify with the probe.
std::unique_ptr<ProgramSet>
buildPrograms(const std::vector<workloads::Workload> &All, uint64_t Request) {
  auto Owned = std::make_unique<ProgramSet>();
  ProgramSet &Set = *Owned;
  Set.Ctx = std::make_unique<MLIRContext>();
  registerAllDialects(*Set.Ctx);
  Set.Programs.reserve(All.size());
  for (const workloads::Workload &W : All) {
    LayerSpan Span("frontend.build", "bench.frontend", Request);
    if (Span.get().isActive())
      Span.get().arg("program", W.Name);
    auto Start = Clock::now();
    Set.Programs.push_back(W.Build(*Set.Ctx));
    Set.BuildMs += msSince(Start);
    frontend::SourceProgram &P = Set.Programs.back();
    auto Inner = std::move(P.Verify);
    std::string Name = W.Name;
    P.Verify = [Inner, Name](
                   const std::map<std::string, exec::Storage *> &Buffers) {
      if (!Probe.Active)
        return Inner ? Inner(Buffers) : true;
      LayerSpan Span("workloads.verify", "bench.workloads", Probe.Request);
      auto Start = Clock::now();
      bool Ok = Inner ? Inner(Buffers) : true;
      if (Name == Probe.ForceFail)
        Ok = false;
      Probe.Ms += msSince(Start);
      Probe.Failed += !Ok;
      return Ok;
    };
  }
  return Owned;
}

//===----------------------------------------------------------------------===//
// Forwarding launcher (exec and runtime layers)
//===----------------------------------------------------------------------===//

/// Exec/runtime measurements of one run, filled by BenchLauncher from
/// the scheduler's worker threads.
struct LaunchLog {
  std::mutex M;
  Clock::time_point Base = Clock::now();
  double SubmitSumMs = 0.0; ///< Sum of submission times (ms after Base).
  double StartSumMs = 0.0;  ///< Sum of launch start times.
  std::vector<std::pair<double, double>> Intervals; ///< Launch [start, end].
  double LaunchMs = 0.0;
  uint64_t Steps = 0;
  uint64_t Launches = 0;
  uint64_t Failed = 0;
};

/// Forwards to an Executable: prepareLaunch marks submission, launchKernel
/// is the launch, and the first launch of each kernel times its bytecode
/// translation (Executable::getKernelBytecode caches it, so the forwarded
/// launch reuses the result).
class BenchLauncher final : public rt::KernelLauncher {
public:
  BenchLauncher(core::Executable &Exe, uint64_t Request)
      : Exe(Exe), Request(Request) {}

  /// Directs the next run's measurements to \p NewLog. Called between
  /// runs, when no launch is in flight.
  void setLog(LaunchLog *NewLog) { Log = NewLog; }
  double getTranslateMs() const { return TranslateMs; }

  LogicalResult prepareLaunch(std::string_view Name, double &ExtraSimTime,
                              std::string *ErrorMessage) override {
    {
      std::lock_guard<std::mutex> Lock(Log->M);
      Log->SubmitSumMs += msSince(Log->Base);
    }
    return Exe.prepareLaunch(Name, ExtraSimTime, ErrorMessage);
  }

  LogicalResult launchKernel(exec::Device &Dev, std::string_view Name,
                             const exec::NDRange &Range,
                             const std::vector<exec::KernelArg> &Args,
                             exec::LaunchStats &Stats,
                             std::string *ErrorMessage) override {
    bool FirstLaunch;
    {
      std::lock_guard<std::mutex> Lock(TranslateMutex);
      FirstLaunch = Translated.emplace(Name).second;
    }
    if (FirstLaunch) {
      LayerSpan Span("exec.translate", "bench.exec", Request);
      auto Start = Clock::now();
      (void)Exe.getKernelBytecode(Name);
      double Ms = msSince(Start);
      std::lock_guard<std::mutex> Lock(TranslateMutex);
      TranslateMs += Ms;
    }
    LayerSpan Span("exec.launch", "bench.exec", Request);
    if (Span.get().isActive())
      Span.get().arg("kernel", Name);
    auto Start = Clock::now();
    LogicalResult R =
        Exe.launchKernel(Dev, Name, Range, Args, Stats, ErrorMessage);
    auto End = Clock::now();
    std::lock_guard<std::mutex> Lock(Log->M);
    double S = msBetween(Log->Base, Start), E = msBetween(Log->Base, End);
    Log->StartSumMs += S;
    Log->Intervals.emplace_back(S, E);
    Log->LaunchMs += E - S;
    ++Log->Launches;
    if (R.failed())
      ++Log->Failed;
    else
      Log->Steps += Stats.StepsExecuted;
    return R;
  }

private:
  core::Executable &Exe;
  uint64_t Request;
  LaunchLog *Log = nullptr;
  std::mutex TranslateMutex;
  std::set<std::string, std::less<>> Translated;
  double TranslateMs = 0.0;
};

uint64_t countOps(const core::Executable &Exe) {
  uint64_t Count = 0;
  Exe.getModule().getOperation()->walk([&](Operation *) { ++Count; });
  return Count;
}

//===----------------------------------------------------------------------===//
// Shared per-layer accumulators
//===----------------------------------------------------------------------===//

constexpr core::CompilerFlow Flows[] = {core::CompilerFlow::DPCPP,
                                        core::CompilerFlow::SYCLMLIR,
                                        core::CompilerFlow::AdaptiveCpp};

const char *flowKey(core::CompilerFlow Flow) {
  switch (Flow) {
  case core::CompilerFlow::DPCPP:
    return "dpcpp";
  case core::CompilerFlow::SYCLMLIR:
    return "syclmlir";
  case core::CompilerFlow::AdaptiveCpp:
    return "acpp";
  }
  return "";
}

/// Compile requests by outcome (count and summed latency).
struct OutcomeTally {
  static constexpr core::CompileOutcome All[] = {
      core::CompileOutcome::Miss, core::CompileOutcome::MemoryHit,
      core::CompileOutcome::Rematerialized, core::CompileOutcome::DiskHit,
      core::CompileOutcome::Failed};
  std::map<core::CompileOutcome, std::pair<uint64_t, double>> ByOutcome;

  void add(core::CompileOutcome O, double Ms) {
    auto &[Count, Sum] = ByOutcome[O];
    ++Count;
    Sum += Ms;
  }
  void merge(const OutcomeTally &Other) {
    for (auto &[O, CS] : Other.ByOutcome) {
      ByOutcome[O].first += CS.first;
      ByOutcome[O].second += CS.second;
    }
  }
  uint64_t count(core::CompileOutcome O) const {
    auto It = ByOutcome.find(O);
    return It == ByOutcome.end() ? 0 : It->second.first;
  }
  double meanMs(core::CompileOutcome O) const {
    auto It = ByOutcome.find(O);
    return It == ByOutcome.end() || !It->second.first
               ? 0.0
               : It->second.second / It->second.first;
  }
  uint64_t total() const {
    uint64_t N = 0;
    for (auto &[O, CS] : ByOutcome)
      N += CS.first;
    return N;
  }
};

const char *outcomeKey(core::CompileOutcome O) {
  switch (O) {
  case core::CompileOutcome::Miss:
    return "miss";
  case core::CompileOutcome::MemoryHit:
    return "memory_hit";
  case core::CompileOutcome::Rematerialized:
    return "rematerialized";
  case core::CompileOutcome::DiskHit:
    return "disk_hit";
  case core::CompileOutcome::Failed:
    return "failed";
  }
  return "";
}

/// Per-layer measurements of one traced phase.
struct Layers {
  double BuildMs = 0.0;
  uint64_t ProgramsBuilt = 0;
  OutcomeTally Compile;
  core::CompileService::Stats ServiceBefore, ServiceAfter;
  uint64_t OpsOut = 0;
  double LaunchMs = 0.0, TranslateMs = 0.0;
  uint64_t Steps = 0, Launches = 0, LaunchFailed = 0;
  uint64_t BytecodeLaunches = 0, InterpreterLaunches = 0;
  double QueueWaitMs = 0.0, OverheadMs = 0.0;
  double LaunchUnionMs = 0.0;
  std::map<std::string, double> MakespanByFlow;
  uint64_t Uncoalesced = 0, PrivateAccesses = 0, ArithOps = 0;
  double SimSpeedupGeomean = 0.0;
  /// Category -> (geomean, programs).
  std::map<std::string, std::pair<double, size_t>> SpeedupByCategory;
  uint64_t RowsMoved = 0;
  double VerifyMs = 0.0;
  uint64_t VerifyFailed = 0;
  double TracingOverheadMs = 0.0;

  void emit(Result &R) const {
    R.add("exec.launch_ms", LaunchMs, "ms");
    R.add("exec.ns_per_step", Steps ? LaunchMs * 1e6 / Steps : 0.0, "ns");
    R.add("exec.steps", Steps, "count");
    R.add("exec.launches.bytecode", BytecodeLaunches, "count");
    R.add("exec.launches.interpreter", InterpreterLaunches, "count");
    R.add("exec.translate_ms", TranslateMs, "ms");
    R.add("exec.launch_failed", LaunchFailed, "count");
    R.add("transform.ops_out", OpsOut, "count");
    uint64_t Requests = Compile.total();
    R.add("core.compile.requests", Requests, "count");
    for (core::CompileOutcome O : OutcomeTally::All)
      R.add(std::string("core.compile.") + outcomeKey(O), Compile.count(O),
            "count");
    for (core::CompileOutcome O : OutcomeTally::All)
      if (O != core::CompileOutcome::Failed)
        R.add(std::string("core.compile.") + outcomeKey(O) + "_ms",
              Compile.meanMs(O), "ms");
    uint64_t Served = Requests - Compile.count(core::CompileOutcome::Miss) -
                      Compile.count(core::CompileOutcome::Failed);
    R.add("core.compile.hit_ratio",
          Requests ? static_cast<double>(Served) / Requests : 0.0, "ratio");
    R.add("core.compile.inflight_waits",
          ServiceAfter.InFlightWaits - ServiceBefore.InFlightWaits, "count");
    R.add("core.compile.evictions",
          ServiceAfter.Evictions - ServiceBefore.Evictions, "count");
    R.add("core.compile.disk_stores",
          ServiceAfter.DiskStores - ServiceBefore.DiskStores, "count");
    R.add("runtime.queue_wait_ms", QueueWaitMs, "ms");
    R.add("runtime.overhead_ms", OverheadMs, "ms");
    R.add("runtime.parallelism",
          LaunchUnionMs > 0.0 ? LaunchMs / LaunchUnionMs : 0.0, "ratio");
    R.add("frontend.build_ms", BuildMs, "ms");
    R.add("frontend.programs", ProgramsBuilt, "count");
    R.add("workloads.verify_ms", VerifyMs, "ms");
    R.add("workloads.verify_failed", VerifyFailed, "count");
    for (core::CompilerFlow Flow : Flows) {
      auto It = MakespanByFlow.find(flowKey(Flow));
      R.add(std::string("sim.makespan.") + flowKey(Flow),
            It == MakespanByFlow.end() ? 0.0 : It->second, "simunit");
    }
    R.add("sim.global_uncoalesced", Uncoalesced, "count");
    R.add("sim.private_accesses", PrivateAccesses, "count");
    R.add("sim.arith_ops", ArithOps, "count");
    R.add("sim.speedup_geomean", SimSpeedupGeomean, "x");
    R.add("sim.rows_moved", RowsMoved, "count");
    R.add("trace.overhead_ms", TracingOverheadMs, "ms");
  }
};

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

/// Set-ups per run, half before and half after the measured phase so a
/// run samples the host at both ends; setup_s is their median. One set-up
/// takes only milliseconds, so single samples scatter by a third.
constexpr int SetupRepeats = 40;

/// Appends the thread CPU time of \p Count calls of \p Setup, each
/// followed by a SetupSpeed slice.
template <typename Fn>
void timeSetups(std::vector<double> &Samples, int Count, Fn Setup) {
  for (int I = 0; I < Count; ++I) {
    double Start = threadCpuMs();
    Setup();
    Samples.push_back(threadCpuMs() - Start);
    SetupSpeed.sample();
  }
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TraceFile = "e2e-trace.json";
  std::string FingerprintIn;
  std::string FingerprintOut;
  std::string ScratchDir = ".";
  size_t DumpRequests = 0;
  bool SelfTest = false;
};

/// Stops the trace and writes it to --trace-file.
bool writeTrace(const Options &Opts) {
  if (telemetry::writeTraceFile(Opts.TraceFile))
    return true;
  std::fprintf(stderr, "cannot write trace '%s'\n", Opts.TraceFile.c_str());
  return false;
}

//===----------------------------------------------------------------------===//
// paper-gpu / paper-cpu
//===----------------------------------------------------------------------===//

struct Item {
  size_t Program;
  core::CompilerFlow Flow;
};

struct ItemResult {
  bool Ok = false;
  std::string Error;
  double ItemMs = 0.0, CompileMs = 0.0, RunMs = 0.0;
  double ItemCpuMs = 0.0, CompileCpuMs = 0.0, RunCpuMs = 0.0;
  rt::QueueStats Stats;
};

/// The fingerprint row of one item: simulated makespan and the timed
/// run's LaunchStats. Exact, so any change is a moved row.
std::string fingerprintRow(const std::string &Program, core::CompilerFlow Flow,
                           std::string_view Target, const rt::QueueStats &S) {
  const exec::LaunchStats &A = S.Aggregate;
  std::ostringstream OS;
  OS.precision(17);
  OS << Program << '\t' << flowKey(Flow) << '\t' << Target << '\t'
     << S.Makespan << '\t' << S.NumLaunches << '\t'
     << A.CoalescedGlobalAccesses << '\t' << A.UncoalescedGlobalAccesses
     << '\t' << A.LocalAccesses << '\t' << A.PrivateAccesses << '\t'
     << A.ArithOps << '\t' << A.MathOps << '\t' << A.Barriers << '\t'
     << A.StepsExecuted << '\t' << A.SimTime;
  return OS.str();
}

/// Key of a fingerprint row: its first three columns.
std::string rowKey(const std::string &Row) {
  size_t Pos = 0;
  for (int Tab = 0; Tab < 3 && Pos != std::string::npos; ++Tab)
    Pos = Row.find('\t', Pos + 1);
  return Row.substr(0, Pos);
}

/// The end-to-end metrics, shared by every workload. An item is a
/// (program, flow) compile + warm-up + timed run + validation on paper-*,
/// and one compile request on compile-mix. A compile is a request that
/// built a module in the requesting context: every paper-* compile (a
/// pipeline run); on compile-mix, every request but a memory hit.
void addEndToEnd(Result &R, double SetupCpuMs, double ItemsPerCpuSecond,
                 const std::vector<double> &ItemCpuMs,
                 const std::vector<double> &CompileCpuMs) {
  double Scale = Speed.scale();
  auto P = [&](const std::vector<double> &V, unsigned Q) {
    return percentile(V, Q).value_or(0.0) * Scale;
  };
  R.add("setup_s", SetupCpuMs * SetupSpeed.scale() / 1000.0, "s");
  R.add("items_per_cpu_s", ItemsPerCpuSecond / Scale, "1/s");
  R.add("item_cpu_ms_p50", P(ItemCpuMs, 500), "ms");
  R.add("item_cpu_ms_p90", P(ItemCpuMs, 900), "ms");
  R.add("compile_cpu_ms_p50", P(CompileCpuMs, 500), "ms");
  R.add("compile_cpu_ms_p90", P(CompileCpuMs, 900), "ms");
  R.add("peak_rss_mb", peakRssMb(), "MB");
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "  host speed: calibration slice %.4f ms CPU (reference "
                "%.1f); end-to-end times scaled by %.4f, set-up by %.4f",
                Speed.meanSliceMs(), HostSpeed::RefSliceMs, Scale,
                SetupSpeed.scale());
  R.Report.push_back(Line);
}

class PaperWorkload {
public:
  PaperWorkload(const Options &Opts, std::string Target)
      : Opts(Opts), Target(std::move(Target)),
        All(workloads::getAllWorkloads()) {
    Backend = exec::resolveTarget(this->Target);
    for (size_t P = 0; P < All.size(); ++P)
      for (core::CompilerFlow Flow : Flows)
        if (!(Flow == core::CompilerFlow::AdaptiveCpp &&
              All[P].ACppFailsValidation))
          Items.push_back({P, Flow});
  }

  int run(Result &R) {
    if (Opts.Trace)
      return runTraced(R);
    std::vector<double> SetupMs;
    auto Setup = [&] { Programs = buildPrograms(All, 0); };
    timeSetups(SetupMs, SetupRepeats / 2, Setup);
    return runMeasured(R, SetupMs, Setup);
  }

private:
  /// The seeded item order of pass \p Pass.
  std::vector<Item> passOrder(uint64_t Pass) const {
    std::vector<Item> Order = Items;
    std::mt19937_64 Rng(mixSeed(Opts.Seed * 1000003 + Pass));
    shuffle(Order, Rng);
    return Order;
  }

  ItemResult runItem(const Item &It, rt::Context &RT, Layers *L) {
    ItemResult Res;
    const frontend::SourceProgram &Program = Programs->Programs[It.Program];
    uint64_t Request = telemetry::nextId();
    std::string Name = All[It.Program].Name + " [" +
                       std::string(core::stringifyFlow(It.Flow)) + "]";
    LayerSpan Root(Name, "bench.request", Request);
    auto Start = Clock::now();
    double CpuStart = processCpuMs();
    auto Finish = [&] {
      Res.ItemMs = msSince(Start);
      Res.ItemCpuMs = processCpuMs() - CpuStart;
      return Res;
    };

    // Cold compile: memory tier cleared, disk tier off.
    core::CompileService::get().clearMemoryTier();
    core::CompilerOptions CompOpts;
    CompOpts.Flow = It.Flow;
    core::Compiler Compiler(CompOpts);
    core::CompileOutcome Outcome = core::CompileOutcome::Failed;
    std::unique_ptr<core::Executable> Exe;
    {
      LayerSpan Span("core.compileFor", "bench.core", Request);
      auto CompileStart = Clock::now();
      double CompileCpuStart = threadCpuMs();
      Exe = Compiler.compileFor(Program, *Backend, &Res.Error, &Outcome);
      Res.CompileCpuMs = threadCpuMs() - CompileCpuStart;
      Res.CompileMs = msSince(CompileStart);
      if (L)
        L->Compile.add(Outcome, Res.CompileMs);
    }
    if (!Exe) {
      Res.Error = "compile: " + Res.Error;
      return Finish();
    }

    BenchLauncher Launcher(*Exe, Request);
    LaunchLog WarmupLog, TimedLog;
    Launcher.setLog(&WarmupLog);
    rt::RunResult Warmup;
    {
      LayerSpan Span("runtime.runProgram.warmup", "bench.runtime", Request);
      Warmup = rt::runProgram(Program, Launcher, RT, Target);
    }
    if (!Warmup.Success) {
      Res.Error = "warm-up: " + Warmup.Error;
      return Finish();
    }

    static telemetry::Counter &BcLaunches =
        telemetry::counter("vm.launches.bytecode");
    static telemetry::Counter &InterpLaunches =
        telemetry::counter("vm.launches.interpreter");
    uint64_t Bc0 = BcLaunches.get(), In0 = InterpLaunches.get();
    Launcher.setLog(&TimedLog);
    Probe.Active = true;
    Probe.Request = Request;
    double VerifyMs0 = Probe.Ms;
    rt::RunResult Run;
    {
      LayerSpan Span("runtime.runProgram", "bench.runtime", Request);
      double RunCpuStart = processCpuMs();
      TimedLog.Base = Clock::now();
      Run = rt::runProgram(Program, Launcher, RT, Target);
      Res.RunMs = msSince(TimedLog.Base);
      Res.RunCpuMs = processCpuMs() - RunCpuStart;
    }
    Probe.Active = false;
    Res.Ok = Run.Success && Run.Validated;
    if (!Run.Success)
      Res.Error = "run: " + Run.Error;
    else if (!Run.Validated)
      Res.Error = "validation failed";
    Res.Stats = Run.Stats;
    Finish();

    if (L) {
      L->OpsOut += countOps(*Exe);
      L->TranslateMs += Launcher.getTranslateMs();
      L->LaunchMs += TimedLog.LaunchMs;
      L->Steps += TimedLog.Steps;
      L->Launches += TimedLog.Launches;
      L->LaunchFailed += TimedLog.Failed;
      L->BytecodeLaunches += BcLaunches.get() - Bc0;
      L->InterpreterLaunches += InterpLaunches.get() - In0;
      L->QueueWaitMs += TimedLog.StartSumMs - TimedLog.SubmitSumMs;
      double UnionMs = unionLength(TimedLog.Intervals);
      L->LaunchUnionMs += UnionMs;
      L->OverheadMs += Res.RunMs - (Probe.Ms - VerifyMs0) - UnionMs;
    }
    return Res;
  }

  /// One pass over every item in the seeded order.
  std::vector<ItemResult> runPass(uint64_t Pass, Layers *L) {
    rt::Context RT;
    std::vector<ItemResult> Results;
    for (const Item &It : passOrder(Pass)) {
      Results.push_back(runItem(It, RT, L));
      if (!Opts.Trace)
        CalibrationCpuMs += Speed.sample();

      if (!Results.back().Ok)
        std::fprintf(stderr, "FAILED %s [%s]: %s\n",
                     All[It.Program].Name.c_str(),
                     std::string(core::stringifyFlow(It.Flow)).c_str(),
                     Results.back().Error.c_str());
    }
    return Results;
  }

  /// Simulated results of one pass, in canonical (program, flow) order.
  std::map<std::pair<size_t, int>, ItemResult>
  byItem(uint64_t Pass, const std::vector<ItemResult> &Results) const {
    std::map<std::pair<size_t, int>, ItemResult> Map;
    std::vector<Item> Order = passOrder(Pass);
    for (size_t I = 0; I < Order.size(); ++I)
      Map[{Order[I].Program, static_cast<int>(Order[I].Flow)}] = Results[I];
    return Map;
  }

  /// Fingerprint rows, simulated totals and the SYCL-MLIR-over-DPC++
  /// geomean of one pass; lists moved rows against the baseline.
  void simulated(uint64_t Pass, const std::vector<ItemResult> &Results,
                 Layers &L) {
    auto Map = byItem(Pass, Results);
    std::vector<std::string> Rows;
    std::vector<double> Speedups;
    std::map<std::string, std::vector<double>> ByCategory;
    for (auto &[Key, Res] : Map) {
      core::CompilerFlow Flow = static_cast<core::CompilerFlow>(Key.second);
      Rows.push_back(
          fingerprintRow(All[Key.first].Name, Flow, Target, Res.Stats));
      L.MakespanByFlow[flowKey(Flow)] += Res.Stats.Makespan;
      L.Uncoalesced += Res.Stats.Aggregate.UncoalescedGlobalAccesses;
      L.PrivateAccesses += Res.Stats.Aggregate.PrivateAccesses;
      L.ArithOps += Res.Stats.Aggregate.ArithOps;
      if (Flow == core::CompilerFlow::SYCLMLIR) {
        const ItemResult &Base =
            Map.at({Key.first, static_cast<int>(core::CompilerFlow::DPCPP)});
        if (Res.Stats.Makespan > 0.0) {
          Speedups.push_back(Base.Stats.Makespan / Res.Stats.Makespan);
          ByCategory[All[Key.first].Category].push_back(Speedups.back());
        }
      }
    }
    L.SimSpeedupGeomean = geomean(Speedups);
    for (auto &[Category, Values] : ByCategory)
      L.SpeedupByCategory[Category] = {geomean(Values), Values.size()};

    if (!Opts.FingerprintOut.empty()) {
      std::ofstream Out(Opts.FingerprintOut);
      for (const std::string &Row : Rows)
        Out << Row << '\n';
    }
    if (Opts.FingerprintIn.empty())
      return;
    std::map<std::string, std::string> Baseline;
    std::ifstream In(Opts.FingerprintIn);
    for (std::string Line; std::getline(In, Line);)
      if (!Line.empty() && Line[0] != '#')
        Baseline[rowKey(Line)] = Line;
    for (const std::string &Row : Rows) {
      auto It = Baseline.find(rowKey(Row));
      if (It == Baseline.end() || It->second != Row) {
        ++L.RowsMoved;
        std::string Key = rowKey(Row);
        std::replace(Key.begin(), Key.end(), '\t', ' ');
        std::fprintf(stderr, "sim moved: %s\n", Key.c_str());
      }
    }
  }

  template <typename Fn>
  int runMeasured(Result &R, std::vector<double> &SetupSamples, Fn Setup) {
    std::vector<ItemResult> AllResults;
    std::vector<ItemResult> FirstPass;
    double MeasuredMs = 0.0, MeasuredCpuMs = 0.0;
    uint64_t Passes = 0;
    auto Supported = [&] { return hasPercentile(AllResults.size(), 900); };
    while (true) {
      auto Start = Clock::now();
      double CpuStart = processCpuMs() - CalibrationCpuMs;
      std::vector<ItemResult> Pass = runPass(Passes, nullptr);
      MeasuredCpuMs += processCpuMs() - CalibrationCpuMs - CpuStart;
      MeasuredMs += msSince(Start);
      if (Passes == 0)
        FirstPass = Pass;
      AllResults.insert(AllResults.end(), Pass.begin(), Pass.end());
      ++Passes;
      double PassMs = MeasuredMs / Passes;
      if (MeasuredMs + PassMs / 2 >= Opts.Seconds * 1000.0 && Supported())
        break;
    }

    timeSetups(SetupSamples, SetupRepeats - SetupSamples.size(), Setup);
    double SetupMs = median(SetupSamples);

    std::vector<double> ItemMs, CompileMs, RunMs;
    std::vector<double> ItemCpuMs, CompileCpuMs, RunCpuMs;
    for (const ItemResult &Res : AllResults) {
      ++R.Attempted;
      if (!Res.Ok) {
        ++R.Failed;
        continue;
      }
      ItemMs.push_back(Res.ItemMs);
      CompileMs.push_back(Res.CompileMs);
      RunMs.push_back(Res.RunMs);
      ItemCpuMs.push_back(Res.ItemCpuMs);
      CompileCpuMs.push_back(Res.CompileCpuMs);
      RunCpuMs.push_back(Res.RunCpuMs);
    }
    R.Correct = R.Failed == 0;
    double PerSecond = R.Attempted / (MeasuredMs / 1000.0);
    double PerCpuSecond = R.Attempted / (MeasuredCpuMs / 1000.0);
    addEndToEnd(R, SetupMs, PerCpuSecond, ItemCpuMs, CompileCpuMs);

    Layers Sim;
    simulated(0, FirstPass, Sim);
    char Head[160];
    std::snprintf(Head, sizeof(Head),
                  "%s: %llu passes of %zu items, %.3f s wall, %.3f s CPU",
                  Opts.Workload.c_str(),
                  static_cast<unsigned long long>(Passes), Items.size(),
                  MeasuredMs / 1000.0, MeasuredCpuMs / 1000.0);
    R.Report.push_back(Head);
    R.report("setup_s (CPU)", SetupMs / 1000.0, "s", SetupRepeats);
    R.report("programs_per_s", PerSecond, "1/s", R.Attempted);
    R.report("programs_per_cpu_s", PerCpuSecond, "1/s", R.Attempted);
    R.reportPercentile("run_ms_p50", RunMs, 500);
    R.reportPercentile("run_ms_p90", RunMs, 900);
    R.reportPercentile("run_cpu_ms_p50", RunCpuMs, 500);
    R.reportPercentile("run_cpu_ms_p90", RunCpuMs, 900);
    R.reportPercentile("compile_ms_p50", CompileMs, 500);
    R.reportPercentile("compile_ms_p90", CompileMs, 900);
    R.reportPercentile("compile_cpu_ms_p50", CompileCpuMs, 500);
    R.reportPercentile("compile_cpu_ms_p90", CompileCpuMs, 900);
    R.report("sim_speedup_geomean", Sim.SimSpeedupGeomean, "x",
             All.size());
    for (auto &[Category, GeomeanAndCount] : Sim.SpeedupByCategory)
      R.report("  " + Category, GeomeanAndCount.first, "x",
               GeomeanAndCount.second);
    R.report("peak_rss_mb", peakRssMb(), "MB", 1);
    R.report("failed_frac", static_cast<double>(R.Failed) / R.Attempted, "",
             R.Attempted);
    return Supported() ? 0 : 1;
  }

  int runTraced(Result &R) {
    // A discarded warm-up pass (first-touch costs would otherwise land in
    // the reference), an untraced reference phase, then the same items
    // traced; both phases include a set-up so the rollup sees the
    // frontend layer.
    Programs = buildPrograms(All, 0);
    (void)runPass(0, nullptr);
    auto UntracedStart = Clock::now();
    Programs = buildPrograms(All, 0);
    (void)runPass(0, nullptr);
    double UntracedMs = msSince(UntracedStart);

    Layers L;
    telemetry::setThreadName("client-0");
    telemetry::startTrace();
    auto TracedStart = Clock::now();
    std::vector<ItemResult> Results;
    {
      LayerSpan PhaseSpan("phase", "bench.phase", 0);
      uint64_t SetupRequest = telemetry::nextId();
      LayerSpan SetupSpan("setup", "bench.request", SetupRequest);
      Programs = buildPrograms(All, SetupRequest);
    }
    L.BuildMs = Programs->BuildMs;
    L.ProgramsBuilt = Programs->Programs.size();
    double VerifyMs0 = Probe.Ms;
    uint64_t VerifyFailed0 = Probe.Failed;
    {
      LayerSpan PhaseSpan("phase", "bench.phase", 0);
      Results = runPass(0, &L);
    }
    double TracedMs = msSince(TracedStart);
    if (!writeTrace(Opts))
      return 1;
    L.VerifyMs = Probe.Ms - VerifyMs0;
    L.VerifyFailed = Probe.Failed - VerifyFailed0;
    L.TracingOverheadMs = TracedMs - UntracedMs;
    simulated(0, Results, L);
    for (const ItemResult &Res : Results) {
      ++R.Attempted;
      R.Failed += !Res.Ok;
    }
    R.Correct = R.Failed == 0;
    L.emit(R);
    return 0;
  }

  const Options &Opts;
  std::string Target;
  const exec::TargetBackend *Backend = nullptr;
  std::vector<workloads::Workload> All;
  std::vector<Item> Items;
  std::unique_ptr<ProgramSet> Programs;
  /// CPU time spent in HostSpeed samples, left out of the measured CPU.
  double CalibrationCpuMs = 0.0;
};

//===----------------------------------------------------------------------===//
// compile-mix
//===----------------------------------------------------------------------===//

constexpr unsigned NumClients = 4;
constexpr const char *MixTargets[] = {"virtual-gpu", "virtual-cpu"};
constexpr size_t KeysPerProgram = 3 * 2; // flows x targets
/// Zipf exponent of the key popularity.
constexpr double Skew = 1.0;

/// A client's seeded request stream over the (program, flow, target)
/// keys: Zipf-distributed popularity ranks, each client drawing from its
/// own stream. Rank r is key Stride * r mod N, a fixed scramble, so hot
/// keys mix programs, flows and targets, and every seed sees the same
/// popularity: seeds differ in the draws only. (With the seed permuting
/// the ranks instead, which programs were hot moved the CPU cost per
/// request by 10% between seeds.)
class RequestStream {
public:
  RequestStream(uint64_t Seed, unsigned Client, size_t NumKeys)
      : Rng(mixSeed(Seed * 1000003 + 17 + Client)), NumKeys(NumKeys) {
    while (std::gcd(Stride, NumKeys) != 1)
      ++Stride;
    double Sum = 0.0;
    for (size_t K = 0; K < NumKeys; ++K) {
      Sum += 1.0 / std::pow(static_cast<double>(K + 1), Skew);
      Cdf.push_back(Sum);
    }
    for (double &C : Cdf)
      C /= Sum;
  }

  size_t next() {
    double U = unit(Rng);
    size_t Rank = std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    return std::min(Rank, NumKeys - 1) * Stride % NumKeys;
  }

private:
  std::mt19937_64 Rng;
  size_t NumKeys;
  size_t Stride = 97; ///< Coprime with NumKeys, so rank -> key is 1:1.
  std::vector<double> Cdf;
};

class CompileMix {
public:
  explicit CompileMix(const Options &Opts)
      : Opts(Opts), All(workloads::getAllWorkloads()) {
    for (const char *T : MixTargets)
      Backends.push_back(exec::resolveTarget(T));
  }

  size_t numKeys() const { return All.size() * KeysPerProgram; }

  int dumpRequests() const {
    for (unsigned C = 0; C < NumClients; ++C) {
      RequestStream Stream(Opts.Seed, C, numKeys());
      std::printf("client %u:", C);
      for (size_t I = 0; I < Opts.DumpRequests; ++I)
        std::printf(" %zu", Stream.next());
      std::printf("\n");
    }
    return 0;
  }

  int run(Result &R) {
    core::CompileService &Service = core::CompileService::get();
    Service.setMemoryCapacity(64);

    if (Opts.Trace)
      return runTraced(R);
    std::vector<double> SetupMs;
    auto Setup = [&] { setup(0); };
    timeSetups(SetupMs, SetupRepeats / 2, Setup);

    Phase P = runPhase(freshCacheDir(), Opts.Seconds, {});
    std::vector<double> Latency, LatencyCpu, Misses, MissesCpu, BuiltCpu;
    OutcomeTally Tally;
    double WallMs = P.WallMs, CpuMs = P.CpuMs;
    for (const ClientLog &C : P.Clients) {
      CpuMs -= C.CalibrationCpuMs;
      Latency.insert(Latency.end(), C.LatencyMs.begin(), C.LatencyMs.end());
      LatencyCpu.insert(LatencyCpu.end(), C.CpuMs.begin(), C.CpuMs.end());
      for (size_t I = 0; I < C.Keys.size(); ++I) {
        if (C.Outcomes[I] != core::CompileOutcome::MemoryHit)
          BuiltCpu.push_back(C.CpuMs[I]);
        if (C.Outcomes[I] == core::CompileOutcome::Miss) {
          Misses.push_back(C.LatencyMs[I]);
          MissesCpu.push_back(C.CpuMs[I]);
        }
      }
      Tally.merge(C.Tally);
    }
    R.Attempted = Latency.size();
    R.Failed = Tally.count(core::CompileOutcome::Failed);
    R.Correct = R.Failed == 0 && checkResponses(P);
    timeSetups(SetupMs, SetupRepeats - SetupMs.size(), Setup);
    double PerSecond = Latency.size() / (WallMs / 1000.0);
    double PerCpuSecond = Latency.size() / (CpuMs / 1000.0);
    addEndToEnd(R, median(SetupMs), PerCpuSecond, LatencyCpu, BuiltCpu);

    char Head[160];
    std::snprintf(Head, sizeof(Head),
                  "compile-mix: %u clients, %.3f s wall, %.3f s CPU",
                  NumClients, WallMs / 1000.0, CpuMs / 1000.0);
    R.Report.push_back(Head);
    R.report("setup_s (CPU)", median(SetupMs) / 1000.0, "s", SetupRepeats);
    R.report("requests_per_s", PerSecond, "1/s", Latency.size());
    R.report("requests_per_cpu_s", PerCpuSecond, "1/s", Latency.size());
    R.reportPercentile("request_ms_p50", Latency, 500);
    R.reportPercentile("request_ms_p99", Latency, 990);
    R.reportPercentile("request_cpu_ms_p50", LatencyCpu, 500);
    R.reportPercentile("request_cpu_ms_p99", LatencyCpu, 990);
    R.reportPercentile("module_cpu_ms_p50", BuiltCpu, 500);
    R.reportPercentile("module_cpu_ms_p90", BuiltCpu, 900);
    R.reportPercentile("miss_ms_p50", Misses, 500);
    R.reportPercentile("miss_ms_p90", Misses, 900);
    R.reportPercentile("miss_cpu_ms_p50", MissesCpu, 500);
    R.reportPercentile("miss_cpu_ms_p90", MissesCpu, 900);
    R.report("peak_rss_mb", peakRssMb(), "MB", 1);
    R.report("failed_frac",
             R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0.0,
             "", R.Attempted);
    for (core::CompileOutcome O : OutcomeTally::All)
      R.report(std::string("outcome.") + outcomeKey(O),
               static_cast<double>(Tally.count(O)), "", Tally.count(O));
    bool Supported =
        hasPercentile(Latency.size(), 990) &&
        hasPercentile(BuiltCpu.size(), 900);
    return Supported ? 0 : 1;
  }

private:
  struct Client {
    std::unique_ptr<ProgramSet> Set;
    std::vector<std::unique_ptr<core::Compiler>> Compilers; // one per flow
  };

  struct ClientLog {
    std::vector<size_t> Keys;
    std::vector<double> LatencyMs;
    std::vector<double> CpuMs; ///< Client-thread CPU time per request.
    double CalibrationCpuMs = 0.0; ///< Spent in HostSpeed samples.
    std::vector<core::CompileOutcome> Outcomes;
    OutcomeTally Tally;
  };

  struct Phase {
    std::vector<ClientLog> Clients;
    double WallMs = 0.0;
    double CpuMs = 0.0; ///< Process CPU time over the phase.
  };

  /// Builds the clients: one context each, with every program built.
  double setup(uint64_t Request) {
    Clients.clear();
    Clients.resize(NumClients);
    double BuildMs = 0.0;
    for (Client &C : Clients) {
      C.Set = buildPrograms(All, Request);
      BuildMs += C.Set->BuildMs;
      for (core::CompilerFlow Flow : Flows) {
        core::CompilerOptions CompOpts;
        CompOpts.Flow = Flow;
        C.Compilers.push_back(std::make_unique<core::Compiler>(CompOpts));
      }
    }
    return BuildMs;
  }

  /// A fresh disk-tier directory under the scratch directory.
  std::string freshCacheDir() {
    std::filesystem::path Dir =
        std::filesystem::path(Opts.ScratchDir) /
        ("cache-" + std::to_string(getpid()) + "-" +
         std::to_string(CacheDirs.size()));
    std::filesystem::remove_all(Dir);
    CacheDirs.push_back(Dir.string());
    return Dir.string();
  }

  std::unique_ptr<core::Executable> request(Client &C, size_t Key,
                                            core::CompileOutcome &Outcome,
                                            std::string &Error) {
    size_t Program = Key / KeysPerProgram;
    size_t Flow = Key % KeysPerProgram / 2;
    size_t Target = Key % 2;
    return C.Compilers[Flow]->compileFor(C.Set->Programs[Program],
                                         *Backends[Target], &Error, &Outcome);
  }

  /// Runs the closed loop: every client sends its next request when the
  /// previous one returns, for \p Seconds or — when \p Counts is given —
  /// for exactly Counts[c] requests per client. Starts from an empty
  /// memory tier and a fresh disk directory.
  Phase runPhase(const std::string &CacheDir, double Seconds,
                 const std::vector<size_t> &Counts) {
    core::CompileService &Service = core::CompileService::get();
    Service.clearMemoryTier();
    Service.setDiskCacheDir(CacheDir);
    Phase P;
    P.Clients.resize(NumClients);
    std::atomic<bool> Stop{false};
    std::atomic<unsigned> Ready{0};
    auto Body = [&](unsigned Id) {
      telemetry::setThreadName("client-" + std::to_string(Id));
      Client &C = Clients[Id];
      ClientLog &Log = P.Clients[Id];
      RequestStream Stream(Opts.Seed, Id, numKeys());
      Ready.fetch_add(1);
      while (Ready.load() < NumClients)
        std::this_thread::yield();
      LayerSpan PhaseSpan("phase", "bench.phase", 0);
      for (size_t N = 0;; ++N) {
        if (Counts.empty() ? Stop.load(std::memory_order_relaxed)
                           : N >= Counts[Id])
          break;
        size_t Key = Stream.next();
        uint64_t Request = telemetry::nextId();
        LayerSpan Root("request", "bench.request", Request);
        core::CompileOutcome Outcome = core::CompileOutcome::Failed;
        std::string Error;
        auto Start = Clock::now();
        double CpuStart = threadCpuMs();
        {
          LayerSpan Span("core.compileFor", "bench.core", Request);
          auto Exe = request(C, Key, Outcome, Error);
          if (!Exe)
            Outcome = core::CompileOutcome::Failed;
        }
        Log.CpuMs.push_back(threadCpuMs() - CpuStart);
        double Ms = msSince(Start);
        Log.Keys.push_back(Key);
        Log.LatencyMs.push_back(Ms);
        Log.Outcomes.push_back(Outcome);
        Log.Tally.add(Outcome, Ms);
        if (!Opts.Trace && N % 32 == 31)
          Log.CalibrationCpuMs += Speed.sample();
      }
    };
    auto Start = Clock::now();
    double CpuStart = processCpuMs();
    std::vector<std::thread> Threads;
    for (unsigned Id = 0; Id < NumClients; ++Id)
      Threads.emplace_back(Body, Id);
    if (Counts.empty()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(Seconds));
      Stop.store(true);
    }
    for (std::thread &T : Threads)
      T.join();
    P.WallMs = msSince(Start);
    P.CpuMs = processCpuMs() - CpuStart;
    return P;
  }

  /// Every key a client was served must match a cold reference compile
  /// (same op count). Re-requests are served from the run's memory or
  /// disk tier; the references then compile with both tiers cleared.
  bool checkResponses(const Phase &P) {
    std::map<size_t, unsigned> ServedBy;
    for (unsigned Id = 0; Id < NumClients; ++Id)
      for (size_t Key : P.Clients[Id].Keys)
        ServedBy.emplace(Key, Id);
    std::map<size_t, uint64_t> Served;
    bool Ok = true;
    for (auto [Key, Id] : ServedBy) {
      core::CompileOutcome Outcome;
      std::string Error;
      auto Exe = request(Clients[Id], Key, Outcome, Error);
      if (!Exe) {
        std::fprintf(stderr, "re-request of key %zu failed: %s\n", Key,
                     Error.c_str());
        Ok = false;
        continue;
      }
      Served[Key] = countOps(*Exe);
    }
    std::map<size_t, uint64_t> Reference = referenceOps();
    for (auto [Key, Ops] : Served)
      if (Reference[Key] != Ops) {
        std::fprintf(stderr, "key %zu: served %llu ops, reference %llu\n",
                     Key, static_cast<unsigned long long>(Ops),
                     static_cast<unsigned long long>(Reference[Key]));
        Ok = false;
      }
    return Ok;
  }

  /// Op counts of every key compiled cold in a fresh context.
  std::map<size_t, uint64_t> referenceOps() {
    core::CompileService &Service = core::CompileService::get();
    Service.setDiskCacheDir("");
    Service.clearMemoryTier();
    std::map<size_t, uint64_t> Ops;
    Client Ref;
    Ref.Set = buildPrograms(All, 0);
    for (core::CompilerFlow Flow : Flows) {
      core::CompilerOptions CompOpts;
      CompOpts.Flow = Flow;
      Ref.Compilers.push_back(std::make_unique<core::Compiler>(CompOpts));
    }
    for (size_t Key = 0; Key < numKeys(); ++Key) {
      core::CompileOutcome Outcome;
      std::string Error;
      auto Exe = request(Ref, Key, Outcome, Error);
      Ops[Key] = Exe ? countOps(*Exe) : 0;
    }
    Service.clearMemoryTier();
    return Ops;
  }

  int runTraced(Result &R) {
    core::CompileService &Service = core::CompileService::get();
    // A short discarded warm-up, an untraced reference phase (set-up +
    // half the run), then the same per-client request counts traced,
    // from the same cold-cache state.
    setup(0);
    (void)runPhase(freshCacheDir(), std::min(2.0, Opts.Seconds / 4), {});
    auto UntracedStart = Clock::now();
    setup(0);
    Phase Untraced = runPhase(freshCacheDir(), Opts.Seconds / 2, {});
    double UntracedMs = msSince(UntracedStart);
    std::vector<size_t> Counts;
    for (const ClientLog &C : Untraced.Clients)
      Counts.push_back(C.Keys.size());

    Layers L;
    std::string TracedDir = freshCacheDir();
    telemetry::setThreadName("main");
    telemetry::startTrace();
    auto TracedStart = Clock::now();
    {
      LayerSpan PhaseSpan("phase", "bench.phase", 0);
      uint64_t SetupRequest = telemetry::nextId();
      LayerSpan SetupSpan("setup", "bench.request", SetupRequest);
      L.BuildMs = setup(SetupRequest);
    }
    L.ProgramsBuilt = NumClients * All.size();
    L.ServiceBefore = Service.getStats();
    Phase Traced = runPhase(TracedDir, 0.0, Counts);
    L.ServiceAfter = Service.getStats();
    double TracedMs = msSince(TracedStart);
    if (!writeTrace(Opts))
      return 1;
    L.TracingOverheadMs = TracedMs - UntracedMs;
    for (const ClientLog &C : Traced.Clients) {
      L.Compile.merge(C.Tally);
      R.Attempted += C.Keys.size();
    }
    R.Failed = L.Compile.count(core::CompileOutcome::Failed);
    R.Correct = R.Failed == 0 && checkResponses(Traced);
    std::map<size_t, uint64_t> Reference = referenceOps();
    for (auto [Key, Ops] : Reference)
      L.OpsOut += Ops;
    L.emit(R);
    return 0;
  }

public:
  ~CompileMix() {
    core::CompileService::get().setDiskCacheDir("");
    for (const std::string &Dir : CacheDirs) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
    }
  }

private:
  const Options &Opts;
  std::vector<workloads::Workload> All;
  std::vector<const exec::TargetBackend *> Backends;
  std::vector<Client> Clients;
  std::vector<std::string> CacheDirs;
};

//===----------------------------------------------------------------------===//
// Self-test and entry point
//===----------------------------------------------------------------------===//

int selfTest() {
  int Failures = 0;
  auto Check = [&](bool Cond, const char *What) {
    if (!Cond) {
      std::fprintf(stderr, "self-test FAILED: %s\n", What);
      ++Failures;
    }
  };
  auto Ramp = [](size_t N) {
    std::vector<double> V;
    for (size_t I = 1; I <= N; ++I)
      V.push_back(static_cast<double>(N + 1 - I));
    return V;
  };
  // p90 needs ten samples beyond rank ceil(0.9 n): n >= 100.
  Check(!percentile(Ramp(99), 900), "p90 withheld at n=99");
  Check(std::fabs(*percentile(Ramp(100), 900) - 90.9) < 0.5,
        "p90 of 1..100 is about 90.9");
  // p99 needs n >= 1000; the median needs n >= 20.
  Check(!percentile(Ramp(999), 990), "p99 withheld at n=999");
  Check(std::fabs(*percentile(Ramp(1000), 990) - 991.0) < 1.0,
        "p99 of 1..1000 is about 991");
  Check(!percentile(Ramp(19), 500), "p50 withheld at n=19");
  Check(std::fabs(*percentile(Ramp(20), 500) - 10.5) < 1e-9,
        "p50 of 1..20 is 10.5");
  Check(std::fabs(*percentile(std::vector<double>(500, 3.0), 900) - 3.0) <
            1e-9,
        "percentile of a constant");
  Check(std::fabs(incompleteBeta(0.3, 2.0, 3.0) - 0.3483) < 1e-4,
        "incomplete beta");
  Check(!percentile({}, 500), "no percentile of nothing");
  Check(unionLength({{0, 2}, {1, 3}, {5, 6}}) == 4.0, "interval union");
  return Failures ? 1 : 0;
}

const char *Usage =
    "usage: e2ebench --workload paper-gpu|paper-cpu|compile-mix "
    "--seed N --seconds S --trace 0|1\n"
    "         [--trace-file F] [--scratch DIR] [--fingerprint F]\n"
    "         [--write-fingerprint F] [--force-verify-fail PROGRAM]\n"
    "         [--dump-requests N] [--self-test]\n";

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--self-test") {
      Opts.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    try {
      if (Arg == "--workload")
        Opts.Workload = Value;
      else if (Arg == "--seed")
        Opts.Seed = std::stoull(Value);
      else if (Arg == "--seconds")
        Opts.Seconds = std::stod(Value);
      else if (Arg == "--trace")
        Opts.Trace = Value != "0";
      else if (Arg == "--trace-file")
        Opts.TraceFile = Value;
      else if (Arg == "--scratch")
        Opts.ScratchDir = Value;
      else if (Arg == "--fingerprint")
        Opts.FingerprintIn = Value;
      else if (Arg == "--write-fingerprint")
        Opts.FingerprintOut = Value;
      else if (Arg == "--force-verify-fail")
        Probe.ForceFail = Value;
      else if (Arg == "--dump-requests")
        Opts.DumpRequests = std::stoull(Value);
      else
        return false;
    } catch (const std::exception &) {
      return false;
    }
  }
  return Opts.SelfTest || !Opts.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  // Every SMLIR_* knob changes what is measured (execution tier, default
  // target, cache directory, bytecode features, scheduler threads, ...).
  for (char **Env = environ; *Env; ++Env)
    if (std::strncmp(*Env, "SMLIR_", 6) == 0) {
      std::fprintf(stderr, "e2ebench: refusing to run with %s set\n",
                   *Env);
      return 2;
    }
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    std::fprintf(stderr, "%s", Usage);
    return 2;
  }
  if (Opts.SelfTest)
    return selfTest();

  registerAllPasses();
  exec::registerAllTargets();
  std::fprintf(stderr,
               "host: nproc=%u compiler=\"%s\" build=%s workload=%s "
               "seed=%llu\n",
               std::thread::hardware_concurrency(), E2E_COMPILER,
               E2E_BUILD_TYPE, Opts.Workload.c_str(),
               static_cast<unsigned long long>(Opts.Seed));

  Result R;
  int Status;
  if (Opts.Workload == "paper-gpu" || Opts.Workload == "paper-cpu") {
    PaperWorkload W(Opts, Opts.Workload == "paper-gpu" ? "virtual-gpu"
                                                       : "virtual-cpu");
    Status = W.run(R);
  } else if (Opts.Workload == "compile-mix") {
    CompileMix W(Opts);
    if (Opts.DumpRequests)
      return W.dumpRequests();
    Status = W.run(R);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n%s", Opts.Workload.c_str(),
                 Usage);
    return 2;
  }
  if (Status != 0) {
    std::fprintf(stderr, "e2ebench: run incomplete\n");
    return Status;
  }
  R.print();
  return 0;
}
