// GridSpec expansion, validation and grid-file parsing.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "analysis/json_writer.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"

namespace ccredf::sweep {
namespace {

TEST(GridTest, ExpansionIsFullCrossProductInCanonicalOrder) {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kTdma};
  spec.node_counts = {4, 8};
  spec.utilisations = {0.3, 0.7};
  spec.mixes = {WorkloadMix::kPeriodic};
  spec.set_seeds = {1, 2, 3};
  spec.repetitions = 4;

  const auto points = spec.expand();
  ASSERT_EQ(points.size(), spec.point_count());
  EXPECT_EQ(points.size(), 2u * 2u * 2u * 1u * 3u);
  EXPECT_EQ(spec.shard_count(), points.size() * 4u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
  // Protocol is the outermost axis, seed the innermost.
  EXPECT_EQ(points[0].protocol, Protocol::kCcrEdf);
  EXPECT_EQ(points[0].set_seed, 1u);
  EXPECT_EQ(points[1].set_seed, 2u);
  EXPECT_EQ(points.back().protocol, Protocol::kTdma);
  EXPECT_EQ(points.back().nodes, 8u);
}

TEST(GridTest, ValidateCatchesBadAxes) {
  GridSpec spec;
  EXPECT_TRUE(spec.validate().empty());
  // Planner cells may legitimately oversubscribe the per-slot ceiling
  // through spatial reuse, up to the ring's 8x segment-packing limit.
  spec.utilisations = {1.5};
  EXPECT_TRUE(spec.validate().empty());
  spec.utilisations = {8.5};
  EXPECT_FALSE(spec.validate().empty());
  spec = GridSpec{};
  spec.protocols.clear();
  EXPECT_FALSE(spec.validate().empty());
  spec = GridSpec{};
  spec.repetitions = 0;
  EXPECT_FALSE(spec.validate().empty());
  spec = GridSpec{};
  spec.node_counts = {1};
  EXPECT_FALSE(spec.validate().empty());
}

TEST(GridTest, ParsesFullGridFile) {
  const std::string text = R"(
# comment line
protocols    = ccr-edf, cc-fpr, tdma
nodes        = 4, 8       # trailing comment
utilisations = 0.3, 0.85
mixes        = periodic, mixed, saturation
planners     = off, on
seeds        = 7, 11
repetitions  = 3
slots        = 1234
connections_per_node = 4
min_period_slots = 15
max_period_slots = 150
multicast_fraction = 0.25
background_rate = 0.1
saturation_rate = 2.5
link_length_m = 25.5
payload_bytes = 2048
spatial_reuse = off
base_seed = 99
)";
  GridSpec spec;
  std::string error;
  ASSERT_TRUE(parse_grid(text, spec, error)) << error;
  EXPECT_EQ(spec.protocols.size(), 3u);
  EXPECT_EQ(spec.node_counts, (std::vector<NodeId>{4, 8}));
  EXPECT_EQ(spec.utilisations, (std::vector<double>{0.3, 0.85}));
  EXPECT_EQ(spec.mixes.size(), 3u);
  EXPECT_EQ(spec.planners, (std::vector<bool>{false, true}));
  EXPECT_EQ(spec.set_seeds, (std::vector<std::uint64_t>{7, 11}));
  EXPECT_EQ(spec.repetitions, 3);
  EXPECT_EQ(spec.slots, 1234);
  EXPECT_EQ(spec.connections_per_node, 4);
  EXPECT_EQ(spec.min_period_slots, 15);
  EXPECT_EQ(spec.max_period_slots, 150);
  EXPECT_DOUBLE_EQ(spec.multicast_fraction, 0.25);
  EXPECT_DOUBLE_EQ(spec.background_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.saturation_rate, 2.5);
  EXPECT_DOUBLE_EQ(spec.link_length_m, 25.5);
  EXPECT_EQ(spec.slot_payload_bytes, 2048);
  EXPECT_FALSE(spec.spatial_reuse);
  EXPECT_EQ(spec.base_seed, 99u);
}

TEST(GridTest, UnmentionedKeysKeepDefaults) {
  GridSpec spec;
  std::string error;
  ASSERT_TRUE(parse_grid("nodes = 16\n", spec, error)) << error;
  EXPECT_EQ(spec.node_counts, (std::vector<NodeId>{16}));
  EXPECT_EQ(spec.slots, GridSpec{}.slots);
  EXPECT_EQ(spec.protocols.size(), 1u);
}

TEST(GridTest, RejectsMalformedInput) {
  GridSpec spec;
  std::string error;
  EXPECT_FALSE(parse_grid("nodes 8\n", spec, error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(parse_grid("frobnicate = 1\n", spec, error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(parse_grid("protocols = csma\n", spec, error));
  EXPECT_NE(error.find("unknown protocol"), std::string::npos);
  // One spelling per value, the report's name in any case: no aliases.
  EXPECT_FALSE(parse_grid("protocols = ccredf\n", spec, error));
  EXPECT_NE(error.find("unknown protocol"), std::string::npos);
  EXPECT_FALSE(parse_grid("services = rt\n", spec, error));
  // GridSpec::fast_forward has no key (`--no-fast-forward` sets it).
  EXPECT_FALSE(parse_grid("fast_forward = off\n", spec, error));
  EXPECT_NE(error.find("unknown key"), std::string::npos);
  EXPECT_FALSE(parse_grid("nodes = 0\n", spec, error));
  EXPECT_FALSE(parse_grid("nodes = 999\n", spec, error));
  EXPECT_FALSE(parse_grid("utilisations = banana\n", spec, error));
  EXPECT_FALSE(parse_grid("slots = 10, 20\n", spec, error));
  EXPECT_FALSE(parse_grid("repetitions = -1\n", spec, error));
  // A failed parse must leave the spec untouched.
  GridSpec untouched;
  std::string err2;
  EXPECT_FALSE(parse_grid("nodes = 16\nbogus = 1\n", untouched, err2));
  EXPECT_EQ(untouched.node_counts, GridSpec{}.node_counts);
}

TEST(GridTest, IntFieldsRejectValuesTheyCannotHold) {
  // Rejected at parse, not narrowed: 2^32 + 1 would become 1 and 2^31 a
  // negative count that validate() reports as "must be >= 1".
  for (const char* text :
       {"connections_per_node = 4294967297\n", "link_cuts = 4294967297\n",
        "cbs_flows = 4294967297\n", "churn_nodes = 4294967297\n",
        "repetitions = 2147483648\n"}) {
    GridSpec spec;
    std::string error;
    EXPECT_FALSE(parse_grid(text, spec, error)) << text;
    EXPECT_NE(error.find("line 1: bad "), std::string::npos) << error;
  }
  GridSpec spec;
  std::string error;
  ASSERT_TRUE(parse_grid("repetitions = 2147483647\n", spec, error))
      << error;
  EXPECT_EQ(spec.repetitions, 2147483647);
}

TEST(GridTest, SeedsRejectSigns) {
  // std::stoull accepts a sign and would turn "-1" into seed 2^64 - 1.
  for (const char* text : {"seeds = -1\n", "seeds = 1, +2\n",
                           "base_seed = -1\n"}) {
    GridSpec spec;
    std::string error;
    EXPECT_FALSE(parse_grid(text, spec, error)) << text;
  }
  GridSpec spec;
  std::string error;
  ASSERT_TRUE(parse_grid("seeds = 18446744073709551615\n", spec, error))
      << error;
  EXPECT_EQ(spec.set_seeds, (std::vector<std::uint64_t>{~0ULL}));
}

TEST(GridTest, ListsRejectEmptyItems) {
  // An empty item is an error, not a skipped one: "8,,16" is no
  // two-point axis.
  for (const char* text : {"nodes = 8,,16\n", "nodes = 8, 16,\n",
                           "nodes = , 8\n", "utilisations = 0.3, ,0.5\n"}) {
    GridSpec spec;
    std::string error;
    EXPECT_FALSE(parse_grid(text, spec, error)) << text;
    EXPECT_NE(error.find("empty item"), std::string::npos) << error;
  }
}

TEST(GridTest, ValidateKeepsEveryShardRunnable) {
  // Each of these would fail every shard or overflow its arithmetic: an
  // infinite rate or a dwell under a picosecond gives Rng::exponential a
  // zero mean, a mean past 2^63 ps cannot convert to a Duration, and
  // make_periodic_set rejects a NaN multicast fraction and a one-slot
  // period; a payload below Eq. 2 fails the network; a slot count,
  // period, cut instant or payload times a slot time, a 1e300 m link's
  // delay, connections_per_node times the node count and a saturated CBS
  // server's deadline (postponed T slots per Q served) overflow.
  const std::vector<std::string> texts{
      "mixes = mixed\nbackground_rate = inf\n",
      "mixes = saturation\nsaturation_rate = inf\n",
      "services = cbs\ncbs_rate = inf\n",
      "services = cbs-saturated\ncbs_saturation_rate = inf\n",
      "churns = 500\nchurn_down_slots = inf\n",
      "churns = 1e-300\n",
      "churns = inf\n",
      "multicast_fraction = nan\n",
      "link_length_m = inf\n",
      "nodes = 4\nlink_cuts = 1\ncut_slot = 4611686018427387904\n",
      "nodes = 4\nlink_cuts = 1\ncut_down_slots = 4611686018427387904\n",
      "nodes = 4\nmixes = mixed\nslots = 4611686018427387904\n",
      "nodes = 4\nmin_period_slots = 4611686018427387904\n"
      "max_period_slots = 4611686018427387904\n",
      "nodes = 4\nservices = cbs\ncbs_period_slots = 4611686018427387904\n",
      "nodes = 4\npayload_bytes = 4611686018427387904\n",
      "nodes = 4\nlink_length_m = 1e300\n",
      "nodes = 4\nmixes = mixed\nbackground_rate = 1e-300\n",
      "nodes = 4\nchurns = 1e300\n",
      "nodes = 4\nchurns = 100\nchurn_down_slots = 1e15\n",
      "nodes = 2\nconnections_per_node = 2147483647\n",
      "nodes = 4\nmin_period_slots = 1\n",
      "nodes = 64\nlink_length_m = 1000\npayload_bytes = 64\n",
      "nodes = 8\nlink_length_m = 1e4\nservices = cbs-saturated\n"
      "slots = 100000\ncbs_budget_slots = 1\ncbs_period_slots = 1000000\n",
  };
  for (const std::string& text : texts) {
    GridSpec spec;
    std::string error;
    EXPECT_FALSE(parse_grid(text, spec, error)) << text;
  }
  // The largest rates and shortest dwells it accepts, on the shortest
  // slot extent a grid can describe (2 nodes, 1 mm links, the Eq. 2
  // minimum payload of 5 bytes): no shard may fail.
  GridSpec spec;
  std::string error;
  ASSERT_TRUE(parse_grid(R"(
nodes = 2
mixes = mixed, saturation
services = rt-only, cbs-saturated
churns = 0, 0.001
link_length_m = 0.001
payload_bytes = 5
slots = 10
queue_cap = 8
background_rate = 1000
saturation_rate = 1000
cbs_saturation_rate = 1000
churn_down_slots = 0.001
)",
                         spec, error))
      << error;
  const SweepResult result = run_sweep(spec, {.threads = 1});
  EXPECT_EQ(result.failed_shards, 0);
  // The far corner: the longest slot extent (64 nodes on 1e4 m links)
  // times the longest horizon, period, cut instant and mean arrival gap.
  // Under the sanitizer presets a signed overflow aborts the test.
  GridSpec far;
  ASSERT_TRUE(parse_grid(R"(
nodes = 64
link_length_m = 1e4
utilisations = 1e-6
mixes = mixed
link_cuts = 1
slots = 100000000
connections_per_node = 1
min_period_slots = 100000000
max_period_slots = 100000000
background_rate = 1e-7
cut_slot = 100000000
cut_down_slots = 100000000
)",
                         far, error))
      << error;
  EXPECT_TRUE(run_shard(far, far.expand().front(), 0).ok);
}

TEST(GridTest, ShippedGridsValidate) {
  int grids = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CCREDF_GRIDS_DIR)) {
    if (entry.path().extension() != ".grid") continue;
    ++grids;
    GridSpec spec;
    std::string error;
    EXPECT_TRUE(load_grid_file(entry.path().string(), spec, error))
        << error;
    EXPECT_EQ(spec.validate(), "") << entry.path();
  }
  EXPECT_GE(grids, 7);
}

TEST(GridTest, EchoParsesBackToTheSameSpec) {
  // The report's grid echo and the parser walk one key table: every
  // echoed key is a grid-file key and every echoed value parses back.
  // The echo lists all keys; these few values leave their defaults.
  GridSpec spec;
  std::string error;
  ASSERT_TRUE(parse_grid(R"(
protocols = cc-fpr, tdma
mixes = saturation
services = rt-only, cbs-saturated
planners = on, off
seeds = 3, 18446744073709551615
data_bers = 2e-5
churn_down_slots = 50.5
frame_crc = on
)",
                         spec, error))
      << error;
  const auto echo = [](const GridSpec& s) {
    std::ostringstream os;
    analysis::JsonWriter w(os);
    write_grid(w, s);
    return os.str();
  };
  const std::string json = echo(spec);
  // {"key":value,"axis":[a,b],...} -> one `key = a, b` line per key.
  std::string text;
  int depth = 0;
  for (const char c : json.substr(1, json.size() - 2)) {
    if (c == '[') {
      ++depth;
    } else if (c == ']') {
      --depth;
    } else if (c == ',' && depth == 0) {
      text += '\n';
    } else if (c == ':') {
      text += '=';
    } else if (c != '"') {
      text += c;
    }
  }
  GridSpec back;
  ASSERT_TRUE(parse_grid(text, back, error)) << error << "\n" << text;
  EXPECT_EQ(echo(back), json);
  EXPECT_NE(echo(GridSpec{}), json);
}

TEST(GridTest, ParserIsCrossFieldValidated) {
  GridSpec spec;
  std::string error;
  // min > max period caught by the final validate() pass.
  EXPECT_FALSE(parse_grid(
      "min_period_slots = 100\nmax_period_slots = 50\n", spec, error));
}

TEST(GridTest, BerAxisExpandsBetweenUtilisationAndMix) {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf};
  spec.node_counts = {4};
  spec.utilisations = {0.3, 0.7};
  spec.bers = {0.0, 1e-4};
  spec.mixes = {WorkloadMix::kPeriodic};
  spec.set_seeds = {1};

  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(spec.point_count(), 4u);
  // ber is an inner axis of utilisation: u cycles slowest of the two.
  EXPECT_DOUBLE_EQ(points[0].utilisation, 0.3);
  EXPECT_DOUBLE_EQ(points[0].ber, 0.0);
  EXPECT_DOUBLE_EQ(points[1].ber, 1e-4);
  EXPECT_DOUBLE_EQ(points[2].utilisation, 0.7);
  EXPECT_DOUBLE_EQ(points[2].ber, 0.0);
}

TEST(GridTest, DefaultBerAxisKeepsLegacyPointCount) {
  // The implicit {0.0} ber axis must not multiply legacy grids.
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kTdma};
  spec.node_counts = {4, 8};
  EXPECT_EQ(spec.point_count(), 4u);
  for (const auto& p : spec.expand()) EXPECT_DOUBLE_EQ(p.ber, 0.0);
}

TEST(GridTest, WorkloadKeyIgnoresBerAndProtocol) {
  // Paired comparison along the fault axis: a BER sweep must run the
  // exact same workloads at every ber value and for every protocol.
  GridPoint a;
  a.protocol = Protocol::kCcrEdf;
  a.ber = 0.0;
  GridPoint b = a;
  b.protocol = Protocol::kCcFpr;
  b.ber = 1e-3;
  EXPECT_EQ(workload_key(a), workload_key(b));
  GridPoint c = a;
  c.utilisation = a.utilisation + 0.1;
  EXPECT_NE(workload_key(a), workload_key(c));
}

TEST(GridTest, ValidatesBerAxis) {
  GridSpec spec;
  spec.bers = {};
  EXPECT_FALSE(spec.validate().empty());
  spec = GridSpec{};
  spec.bers = {0.0, 1.0};  // BER must stay below 1
  EXPECT_FALSE(spec.validate().empty());
  spec = GridSpec{};
  spec.bers = {-1e-6};
  EXPECT_FALSE(spec.validate().empty());
  spec = GridSpec{};
  spec.bers = {0.0, 1e-6, 1e-3};
  EXPECT_TRUE(spec.validate().empty());
}

TEST(GridTest, ParsesBerAndFrameCrcKeys) {
  GridSpec spec;
  std::string error;
  ASSERT_TRUE(parse_grid("bers = 0, 1e-4, 1e-3\nframe_crc = on\n", spec,
                         error))
      << error;
  EXPECT_EQ(spec.bers, (std::vector<double>{0.0, 1e-4, 1e-3}));
  EXPECT_TRUE(spec.frame_crc);
  GridSpec off;
  ASSERT_TRUE(parse_grid("frame_crc = off\n", off, error)) << error;
  EXPECT_FALSE(off.frame_crc);
  EXPECT_FALSE(parse_grid("bers = 1.5\n", spec, error));
  EXPECT_FALSE(parse_grid("bers = banana\n", spec, error));
}

// -- data-channel fault axis ---------------------------------------------

TEST(GridTest, DataBerAxisExpandsBetweenBerAndMix) {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf};
  spec.node_counts = {4};
  spec.utilisations = {0.5};
  spec.bers = {0.0, 1e-4};
  spec.data_bers = {0.0, 2e-4};
  spec.mixes = {WorkloadMix::kPeriodic};
  spec.set_seeds = {1};

  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(spec.point_count(), 4u);
  // data_ber is the inner axis of ber.
  EXPECT_DOUBLE_EQ(points[0].ber, 0.0);
  EXPECT_DOUBLE_EQ(points[0].data_ber, 0.0);
  EXPECT_DOUBLE_EQ(points[1].ber, 0.0);
  EXPECT_DOUBLE_EQ(points[1].data_ber, 2e-4);
  EXPECT_DOUBLE_EQ(points[2].ber, 1e-4);
  EXPECT_DOUBLE_EQ(points[2].data_ber, 0.0);
  EXPECT_DOUBLE_EQ(points[3].data_ber, 2e-4);
}

TEST(GridTest, DefaultDataBerAxisKeepsLegacyPointCount) {
  GridSpec spec;
  spec.protocols = {Protocol::kCcrEdf, Protocol::kTdma};
  spec.node_counts = {4, 8};
  EXPECT_EQ(spec.point_count(), 4u);
  for (const auto& p : spec.expand()) EXPECT_DOUBLE_EQ(p.data_ber, 0.0);
}

TEST(GridTest, WorkloadKeyIgnoresDataBer) {
  // Paired comparison along the data-fault axis too: the same workloads
  // must run at every data_ber value.
  GridPoint a;
  a.data_ber = 0.0;
  GridPoint b = a;
  b.data_ber = 2e-4;
  EXPECT_EQ(workload_key(a), workload_key(b));
}

TEST(GridTest, ValidatesDataBerAxis) {
  GridSpec spec;
  spec.data_bers = {};
  EXPECT_FALSE(spec.validate().empty());
  spec = GridSpec{};
  spec.data_bers = {0.0, 1.0};  // BER must stay below 1
  EXPECT_FALSE(spec.validate().empty());
  spec = GridSpec{};
  spec.data_bers = {-1e-6};
  EXPECT_FALSE(spec.validate().empty());
  spec = GridSpec{};
  spec.data_bers = {0.0, 1e-6, 2e-4};
  EXPECT_TRUE(spec.validate().empty());
}

TEST(GridTest, ParsesDataBersAndPayloadCrcKeys) {
  GridSpec spec;
  std::string error;
  ASSERT_TRUE(parse_grid("data_bers = 0, 2e-5, 2e-4\npayload_crc = on\n",
                         spec, error))
      << error;
  EXPECT_EQ(spec.data_bers, (std::vector<double>{0.0, 2e-5, 2e-4}));
  EXPECT_TRUE(spec.payload_crc);
  GridSpec off;
  ASSERT_TRUE(parse_grid("payload_crc = off\n", off, error)) << error;
  EXPECT_FALSE(off.payload_crc);
  EXPECT_FALSE(parse_grid("data_bers = 1.5\n", spec, error));
  EXPECT_FALSE(parse_grid("data_bers = banana\n", spec, error));
}

TEST(GridTest, PayloadCrcImpliesAcksInTheNetworkConfig) {
  // The NACK rides the distribution packet's ack mechanism; a grid that
  // asks for the payload CRC must get a wire that can carry the NACK.
  GridSpec spec;
  spec.payload_crc = true;
  GridPoint point;
  point.protocol = Protocol::kCcrEdf;
  point.nodes = 8;
  const net::NetworkConfig cfg = make_network_config(spec, point);
  EXPECT_TRUE(cfg.with_payload_crc);
  EXPECT_TRUE(cfg.with_acks);
}

}  // namespace
}  // namespace ccredf::sweep
