// perfbench: one workload of the repo benchmark, measured once.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --out FILE
//             [--spans FILE] [--dir DIR] [--smoke 1]
//
// Workloads: serve_mem_int8, serve_xproc_file_fp32, train_sgc_storage.
// The record (metrics with units and sample counts, failures by phase and
// cause, the host and build fingerprint) goes to --out and nowhere else;
// the library's own log lines stay on stdout/stderr.  With --trace 1 the
// run also measures the per-layer metrics and writes its spans to
// --spans.  Exit status: 0 correct, 1 incorrect or failed, 2 usage.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_mem_int8|serve_xproc_file_fp32|train_sgc_storage "
               "--seed N --seconds S --trace 0|1 --out FILE [--spans FILE] "
               "[--dir DIR] [--smoke 0|1]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--out") a.out = v;
      else if (k == "--spans") a.spans = v;
      else if (k == "--dir") a.dir = v;
      else if (k == "--smoke") smoke = std::stoi(v) != 0;
      else usage(("unknown flag " + k).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + k + ": " + v).c_str());
    }
  }
  if (a.workload != "serve_mem_int8" &&
      a.workload != "serve_xproc_file_fp32" &&
      a.workload != "train_sgc_storage") {
    usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (a.out.empty()) usage("--out is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  a.scale = smoke ? smoke_scale() : full_scale();
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // The trainer's pool plus the prefetch producer oversubscribe the cores
  // with the default pool size; pin the pool to nproc-1 unless the caller
  // chose.  Must happen before anything touches the global pool.
  if (args.workload == "train_sgc_storage" &&
      std::getenv("PPGNN_NUM_THREADS") == nullptr) {
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    ::setenv("PPGNN_NUM_THREADS", std::to_string(n > 1 ? n - 1 : 1).c_str(),
             1);
  }
  Record rec;
  Tracer tracer;
  try {
    fingerprint(rec, args);
    if (args.workload == "train_sgc_storage") {
      run_training(args, rec, tracer);
    } else {
      run_serving(args, rec, tracer);
    }
    if (args.trace) {
      rec.metric("failed_frac",
                 rec.attempted() ? static_cast<double>(rec.failed()) /
                                       static_cast<double>(rec.attempted())
                                 : 0,
                 "frac", rec.attempted());
      for (const char* cause : {"shed", "deadline", "quota", "error",
                                "draining", "lost", "mismatch"}) {
        rec.metric(std::string("fail.") + cause,
                   static_cast<double>(rec.failed_by_cause(cause)), "count",
                   rec.attempted());
      }
      if (!args.spans.empty()) tracer.write_csv(args.spans);
      rec.info("spans", static_cast<double>(tracer.size()));
    }
    rec.write(args.out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  return rec.correct() ? 0 : 1;
}
