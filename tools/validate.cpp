// kncube_validate: rebuilds the statistical accuracy baseline.
//
// Runs the validation suite (model-vs-simulation with R-replication
// confidence intervals over the ScenarioSpec space — src/validate/), prints
// the per-point accuracy table plus the per-class roll-up, writes the JSON
// report, and exits non-zero when the report fails (any out-of-tolerance
// modeled point or failed sim-only sanity check) — the CI accuracy gate.
//
// Usage:
//   kncube_validate                       # full suite -> ACCURACY.json
//   kncube_validate --quick               # tier-1-sized subset, seconds;
//                                         # gate only — writes no file unless
//                                         # --out is given explicitly
//   kncube_validate --out path.json       # write elsewhere (empty: no file)
//   kncube_validate --replications 7      # runs per point (default 5, quick 3)
//
// Every interval is a 95% Student-t CI (validate::kConfidence).
//
// Regenerating the committed baseline (from the repo root):
//   ./build/tools/kncube_validate --out ACCURACY.json
#include <iostream>
#include <string>

#include "util/cli.hpp"
#include "validate/accuracy_json.hpp"
#include "validate/replication.hpp"
#include "validate/validation.hpp"

int main(int argc, char** argv) {
  using namespace kncube;

  util::Args args(argc, argv);
  const auto unknown =
      args.unknown_keys({"quick", "out", "replications"});
  if (!unknown.empty()) {
    std::cerr << "kncube_validate: unknown option --" << unknown.front() << "\n";
    return EXIT_FAILURE;
  }

  const bool quick = args.get_bool("quick", false);
  // A quick run is a gate, not a baseline: never clobber the committed
  // ACCURACY.json with subset data unless --out says so explicitly.
  const std::string out_path =
      args.get_string("out", quick ? "" : "ACCURACY.json");

  const auto replications =
      static_cast<int>(args.get_int("replications", quick ? 3 : 5));

  try {
    const auto suite =
        quick ? validate::quick_suite() : validate::full_suite();
    std::cout << (quick ? "quick" : "full") << " suite: " << suite.size()
              << " scenarios, " << replications
              << " replications/point, confidence " << validate::kConfidence
              << "\n\n";

    const validate::ValidationReport report =
        validate::run_validation(suite, replications);

    validate::accuracy_table(report).print(std::cout);
    std::cout << "\n" << validate::summary_line(report) << "\n";

    if (!out_path.empty()) {
      if (!validate::write_json(out_path, validate::to_json(report))) {
        std::cerr << "kncube_validate: cannot write '" << out_path << "'\n";
        return EXIT_FAILURE;
      }
      std::cout << "wrote " << out_path << "\n";
    }
    return report.passed() ? EXIT_SUCCESS : EXIT_FAILURE;
  } catch (const std::exception& e) {
    std::cerr << "kncube_validate: " << e.what() << "\n";
    return EXIT_FAILURE;
  }
}
