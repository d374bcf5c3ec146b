// Seeded mutation fuzz of the grid-file surface.  Each mutant is a
// shipped grid with one value replaced, or one line dropped or
// duplicated.  The property: parse_grid() rejects it with a message, or
// the spec validates and its first shard runs to completion -- never a
// failed shard, and (under the asan/ubsan presets) never UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"

namespace ccredf::sweep {
namespace {

// Type boundaries of every numeric field, the extremes of a double, an
// empty item and a word.
const std::vector<std::string> kReplacements{
    "0",
    "-1",
    "2147483648",
    "4611686018427387904",
    "9223372036854775808",
    "1e-300",
    "1e300",
    "inf",
    "nan",
    "",
    "banana",
};

constexpr std::uint64_t kSeed = 20021015;
constexpr int kMutants = 300;
// Shards of a mutant run this many slots at most; every other value
// stays as parsed.
constexpr std::int64_t kMaxRunSlots = 200;

using Lines = std::vector<std::string>;

std::vector<Lines> shipped_grids() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(CCREDF_GRIDS_DIR)) {
    if (entry.path().extension() == ".grid") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Lines> grids;
  for (const auto& path : paths) {
    std::ifstream in(path);
    Lines lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    grids.push_back(std::move(lines));
  }
  return grids;
}

bool is_key_line(const std::string& line) {
  return line.substr(0, line.find('#')).find('=') != std::string::npos;
}

/// `line` with its `index`-th comma-separated value replaced.
std::string replace_item(const std::string& line, std::size_t index,
                         const std::string& value) {
  const std::size_t eq = line.find('=');
  std::string out = line.substr(0, eq + 1);
  std::size_t start = eq + 1;
  for (std::size_t i = 0;; ++i) {
    const std::size_t comma = line.find(',', start);
    out += i == index ? " " + value : line.substr(start, comma - start);
    if (comma == std::string::npos) return out;
    out += ',';
    start = comma + 1;
  }
}

std::string mutate(const Lines& grid, sim::Rng& rng) {
  std::vector<std::size_t> keyed;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (is_key_line(grid[i])) keyed.push_back(i);
  }
  const std::size_t target = keyed[rng.uniform_u64(keyed.size())];
  const std::uint64_t kind = rng.uniform_u64(4);  // 2 in 4 replace a value
  std::string text;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::string line = grid[i];
    if (i == target) {
      if (kind == 2) continue;             // drop the line
      if (kind == 3) text += line + '\n';  // duplicate it
      if (kind < 2) {
        const std::string values = line.substr(0, line.find('#'));
        const auto items = static_cast<std::uint64_t>(
            std::count(values.begin(), values.end(), ',') + 1);
        line = replace_item(
            values, rng.uniform_u64(items),
            kReplacements[rng.uniform_u64(kReplacements.size())]);
      }
    }
    text += line + '\n';
  }
  return text;
}

TEST(GridFuzz, MutatedShippedGridsFailToParseOrRun) {
  const std::vector<Lines> grids = shipped_grids();
  ASSERT_GE(grids.size(), 7u);
  sim::Rng rng(kSeed);
  int rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string text =
        mutate(grids[rng.uniform_u64(grids.size())], rng);
    SCOPED_TRACE(text);
    GridSpec spec;
    std::string error;
    if (!parse_grid(text, spec, error)) {
      EXPECT_FALSE(error.empty());
      ++rejected;
      continue;
    }
    ASSERT_EQ(spec.validate(), "");
    spec.slots = std::min(spec.slots, kMaxRunSlots);
    EXPECT_TRUE(run_shard(spec, spec.expand().front(), 0).ok);
  }
  // Both branches of the property get exercised.
  EXPECT_GT(rejected, kMutants / 4);
  EXPECT_LT(rejected, kMutants);
}

}  // namespace
}  // namespace ccredf::sweep
