// The committed example specs (examples/specs/*.spec) as test input: the
// corpus of the spec-text golden and mutation tests. The test target defines
// KNCUBE_SOURCE_DIR as the repository root.
#pragma once

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace kncube::test_support {

struct ExampleSpec {
  std::string name;  ///< file name, e.g. "hotspot_torus.spec"
  std::string text;  ///< the file's bytes
};

/// Every examples/specs/*.spec file, sorted by name.
inline std::vector<ExampleSpec> example_specs() {
  std::vector<ExampleSpec> specs;
  const std::filesystem::path dir =
      std::filesystem::path(KNCUBE_SOURCE_DIR) / "examples" / "specs";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".spec") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    specs.push_back({entry.path().filename().string(), text.str()});
  }
  std::sort(specs.begin(), specs.end(),
            [](const ExampleSpec& a, const ExampleSpec& b) { return a.name < b.name; });
  return specs;
}

}  // namespace kncube::test_support
