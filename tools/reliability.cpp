// kncube_reliability: rebuilds the reliability-degradation baseline.
//
// Runs the reliability suite (failure-count sweeps measured with
// R-replication confidence intervals — src/validate/reliability.*), prints
// the degradation table, writes the JSON report, and exits non-zero when the
// report fails (any conservation violation, or faulty-sim results that are
// not bit-identical across sim.threads) — the CI reliability gate.
//
// Usage:
//   kncube_reliability                    # full suite -> RELIABILITY.json
//   kncube_reliability --quick            # tier-1-sized subset, seconds;
//                                         # gate only — writes no file unless
//                                         # --out is given explicitly
//   kncube_reliability --out path.json    # write elsewhere (empty: no file)
//   kncube_reliability --replications 5   # runs per point (default 3, quick 2)
//
// Every interval is a 95% Student-t CI (validate::kConfidence).
//
// Regenerating the committed baseline (from the repo root):
//   ./build/tools/kncube_reliability --out RELIABILITY.json
#include <iostream>
#include <string>

#include "util/cli.hpp"
#include "validate/accuracy_json.hpp"
#include "validate/reliability.hpp"
#include "validate/replication.hpp"

int main(int argc, char** argv) {
  using namespace kncube;

  util::Args args(argc, argv);
  const auto unknown =
      args.unknown_keys({"quick", "out", "replications"});
  if (!unknown.empty()) {
    std::cerr << "kncube_reliability: unknown option --" << unknown.front()
              << "\n";
    return EXIT_FAILURE;
  }

  const bool quick = args.get_bool("quick", false);
  // A quick run is a gate, not a baseline: never clobber the committed
  // RELIABILITY.json with subset data unless --out says so explicitly.
  const std::string out_path =
      args.get_string("out", quick ? "" : "RELIABILITY.json");

  const auto replications =
      static_cast<int>(args.get_int("replications", quick ? 2 : 3));

  try {
    const auto suite = quick ? validate::reliability_quick_suite()
                             : validate::reliability_suite();
    std::cout << (quick ? "quick" : "full") << " suite: " << suite.size()
              << " scenarios, " << replications
              << " replications/point, confidence " << validate::kConfidence
              << "\n\n";

    const validate::ReliabilityReport report =
        validate::run_reliability(suite, replications);

    validate::reliability_table(report).print(std::cout);
    std::cout << "\n" << validate::summary_line(report) << "\n";

    if (!out_path.empty()) {
      if (!validate::write_json(out_path, validate::to_json(report))) {
        std::cerr << "kncube_reliability: cannot write '" << out_path << "'\n";
        return EXIT_FAILURE;
      }
      std::cout << "wrote " << out_path << "\n";
    }
    return report.passed() ? EXIT_SUCCESS : EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "kncube_reliability: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
