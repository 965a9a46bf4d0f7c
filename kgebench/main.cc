// kgebench: runs one workload of the mei-kge benchmark and prints a
// report line and then the result line (see README.md).
//
//   kgebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--inputs-dir D] [--tools-dir D] [--out-dir D]
//            [--source-id S]
//   kgebench prepare --scale <small|medium|xl> [--inputs-dir D]
//   kgebench selftest
//
// kgebench/run.py builds the program and this binary, writes the cached
// inputs, and then invokes it; run that script rather than this binary.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "oracle.h"
#include "trace.h"
#include "workloads.h"

namespace kgebench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kgebench --workload <train_wn18like|serve_100k_open|"
               "serve_1m_hot> --seed N --seconds S --trace 0|1 [--smoke]\n"
               "       kgebench prepare --scale small|medium|xl\n"
               "       kgebench selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  std::string command = "run";
  std::string scale;
  int first = 1;
  if (argc > 1 && argv[1][0] != '-') {
    command = argv[1];
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string text;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workload") {
      if (!value(&args.workload)) return Usage();
    } else if (flag == "--seed") {
      if (!value(&text)) return Usage();
      args.seed = std::strtoull(text.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!value(&text)) return Usage();
      args.seconds = std::atof(text.c_str());
    } else if (flag == "--trace") {
      if (!value(&text)) return Usage();
      args.trace = text == "1";
    } else if (flag == "--scale") {
      if (!value(&scale)) return Usage();
    } else if (flag == "--inputs-dir") {
      if (!value(&args.inputs_dir)) return Usage();
    } else if (flag == "--tools-dir") {
      if (!value(&args.tools_dir)) return Usage();
    } else if (flag == "--out-dir") {
      if (!value(&args.out_dir)) return Usage();
    } else if (flag == "--source-id") {
      if (!value(&args.source_id)) return Usage();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return Usage();
    }
  }

  if (command == "prepare") return PrepareCheckpoint(args, scale);
  if (command == "selftest") {
    std::string log;
    const int misbehaved = SelfTestChecks(&log);
    std::fprintf(stderr, "%s", log.c_str());
    std::fprintf(stderr, "selftest: %s\n", misbehaved == 0 ? "ok" : "FAILED");
    return misbehaved == 0 ? 0 : 1;
  }
  if (command != "run" || args.seconds <= 0.0) return Usage();
  const bool train = args.workload == "train_wn18like";
  if (!train && args.workload != "serve_100k_open" &&
      args.workload != "serve_1m_hot") {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage();
  }

  RunResult result;
  if (args.trace) {
    Tracer::Get().Enable();
    result = RunLayers(args);
  } else if (train) {
    result = RunTrainWorkload(args);
  } else {
    result = RunServeWorkload(args);
  }
  PrintRun(args, result);
  return 0;
}

}  // namespace
}  // namespace kgebench

int main(int argc, char** argv) { return kgebench::Main(argc, argv); }
