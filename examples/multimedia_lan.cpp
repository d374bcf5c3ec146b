// Distributed-multimedia LAN: video + audio streams as guaranteed
// connections, background best-effort traffic, and a file transfer over
// the reliable channel on noisy data fibres (paper §1 services).
//
//   $ ./examples/multimedia_lan
#include <iostream>

#include "analysis/report.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "services/reliable.hpp"
#include "workload/multimedia.hpp"
#include "workload/poisson.hpp"

using namespace ccredf;

int main() {
  workload::MultimediaParams mm;
  mm.nodes = 8;
  mm.video_streams = 3;
  mm.audio_streams = 4;
  const auto scenario = workload::make_multimedia_scenario(mm);

  net::NetworkConfig cfg;
  cfg.nodes = mm.nodes;
  // Receivers check each payload's CRC-32 and NACK a corrupted transfer
  // on the next distribution packet; the reliable channel retransmits.
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  net::Network network(cfg);

  int admitted = 0;
  for (const auto& c : scenario.connections) {
    if (network.open_connection(c).admitted) ++admitted;
  }
  std::cout << "Multimedia LAN on " << network.nodes() << " nodes: "
            << admitted << "/" << scenario.connections.size()
            << " streams admitted (u=" << scenario.total_utilisation
            << ", U_max=" << network.timing().u_max() << ")\n";

  // Background best-effort (web/file) traffic.
  workload::PoissonGenerator background(
      network, scenario.background,
      sim::TimePoint::origin() + network.timing().slot() * 8000);

  // A 256 KiB reliable file transfer over data fibres with bit errors.
  fault::FaultInjector noise(network, /*seed=*/1);
  noise.set_data_ber(2e-7);
  services::ReliableChannel reliable(network,
                                     services::ReliableChannel::Params{});
  const std::int64_t file_slots =
      (256 * 1024) / network.timing().payload_bytes() + 1;
  bool file_done = false;
  services::ReliableChannel::TransferResult file_result;
  reliable.send(1, 6, file_slots, sim::Duration::milliseconds(100),
                [&](const services::ReliableChannel::TransferResult& r) {
                  file_done = true;
                  file_result = r;
                });

  network.run_slots(10'000);

  analysis::Table t("Traffic summary after 10k slots");
  t.columns({"class", "delivered", "mean lat (us)", "p-misses"});
  const auto row = [&](const char* name, core::TrafficClass c) {
    const auto& s = network.stats().cls(c);
    t.row()
        .cell(name)
        .cell(s.delivered)
        .cell(s.latency.mean() / 1e6, 2)
        .cell(s.user_misses);
  };
  row("RT (video+audio)", core::TrafficClass::kRealTime);
  row("best effort", core::TrafficClass::kBestEffort);
  t.print(std::cout);

  std::cout << "\nreliable 256 KiB transfer: "
            << (file_done && file_result.delivered ? "delivered" : "FAILED")
            << " after " << file_result.attempts << " attempt(s), "
            << reliable.retransmissions() << " retransmissions\n"
            << "background messages generated: " << background.generated()
            << "\n";
  return 0;
}
