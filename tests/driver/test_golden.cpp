// Golden byte-identity: for every corpus program and every examples/synl
// file, the JSON report, the --provenance JSON report and the `explain`
// text must equal the checked-in files under tests/golden byte for byte.
// The inputs are built exactly as `synat batch <spec>` and `synat explain
// <spec>` build them; tools/gen_golden.sh regenerates the files from a
// synat binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "synat/corpus/corpus.h"
#include "synat/driver/driver.h"

namespace synat::driver {
namespace {

namespace fs = std::filesystem;

const fs::path kSourceDir = SYNAT_SOURCE_DIR;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct GoldenCase {
  std::string tag;   ///< golden file stem
  ProgramInput input;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  for (const corpus::Entry& e : corpus::all()) {
    GoldenCase c;
    c.tag = "corpus_" + std::string(e.name);
    c.input.name = "corpus:" + std::string(e.name);
    c.input.source = std::string(e.source);
    for (auto cas : e.counted_cas) c.input.opts.counted_cas.emplace_back(cas);
    cases.push_back(std::move(c));
  }
  std::vector<fs::path> examples;
  for (const auto& f : fs::directory_iterator(kSourceDir / "examples/synl"))
    if (f.path().extension() == ".synl") examples.push_back(f.path());
  std::sort(examples.begin(), examples.end());
  for (const fs::path& f : examples) {
    GoldenCase c;
    c.tag = "examples_" + f.stem().string();
    c.input.name = "examples/synl/" + f.filename().string();
    c.input.source = read_file(f);
    cases.push_back(std::move(c));
  }
  return cases;
}

std::string golden(const std::string& file) {
  fs::path path = kSourceDir / "tests/golden" / file;
  EXPECT_TRUE(fs::exists(path)) << "missing golden " << path;
  return read_file(path);
}

// Every input has its three goldens and every golden has its input, so a
// new corpus program or example cannot go unchecked.
TEST(Golden, CoversEveryCorpusProgramAndExample) {
  std::set<std::string> expected, found;
  for (const GoldenCase& c : golden_cases())
    for (const char* ext : {".json", ".prov.json", ".explain.txt"})
      expected.insert(c.tag + ext);
  for (const auto& f : fs::directory_iterator(kSourceDir / "tests/golden"))
    found.insert(f.path().filename().string());
  EXPECT_EQ(found, expected);
}

TEST(Golden, ReportsAreByteIdentical) {
  for (const GoldenCase& c : golden_cases()) {
    BatchDriver drv(DriverOptions{});
    EXPECT_EQ(to_json(drv.run({c.input})), golden(c.tag + ".json")) << c.tag;
  }
}

TEST(Golden, ProvenanceReportsAreByteIdentical) {
  RenderOptions ropts;
  ropts.provenance = true;
  for (const GoldenCase& c : golden_cases()) {
    ProgramInput in = c.input;
    in.opts.provenance = true;
    BatchDriver drv(DriverOptions{});
    EXPECT_EQ(to_json(drv.run({in}), ropts), golden(c.tag + ".prov.json"))
        << c.tag;
  }
}

TEST(Golden, ExplainTextIsByteIdentical) {
  for (const GoldenCase& c : golden_cases()) {
    ProgramInput in = c.input;
    in.opts.provenance = true;
    BatchDriver drv(DriverOptions{});
    EXPECT_EQ(to_explain(drv.run({in})), golden(c.tag + ".explain.txt"))
        << c.tag;
  }
}

}  // namespace
}  // namespace synat::driver
