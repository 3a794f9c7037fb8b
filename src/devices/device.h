#pragma once

// Base class for emulated network equipment.
//
// The paper uses real routers; this reproduction substitutes behavioural
// emulations (see DESIGN.md §2). Every device:
//   - owns simnet Ports (its physical interfaces),
//   - exposes a console: a line-oriented CLI reachable through the RIS
//     console proxy and the web UI's VT100 terminal (§2.1),
//   - can dump and re-apply its configuration ("show running-config" /
//     config restore on deploy),
//   - carries a firmware version that gates feature behaviour (§1: "each
//     [firmware version] behaves slightly different").

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "devices/firmware.h"
#include "simnet/network.h"

namespace rnl::devices {

class Device {
 public:
  Device(simnet::Network& net, std::string name, Firmware firmware);
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Firmware& firmware() const { return firmware_; }
  /// Re-flashing firmware reboots the device (§2.1: users flash the version
  /// they want to test; configuration survives in NVRAM, dynamic state not).
  void flash_firmware(const Firmware& firmware);

  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }
  simnet::Port& port(std::size_t index) { return *ports_.at(index); }
  [[nodiscard]] const std::vector<std::string>& port_names() const {
    return port_names_;
  }
  /// Index of the named interface, or -1.
  [[nodiscard]] int find_port(const std::string& ifname) const;

  /// Executes one console line; returns the output text (may be multi-line).
  virtual std::string exec(const std::string& line) = 0;
  /// Console prompt reflecting CLI mode, e.g. "sw1(config-if)#".
  [[nodiscard]] virtual std::string prompt() const = 0;

  /// Complete re-appliable configuration dump.
  [[nodiscard]] virtual std::string running_config() const = 0;
  /// Applies a configuration dump line by line (used by auto config restore
  /// on deploy, §2.1). Returns accumulated error output, empty on success.
  std::string apply_config(const std::string& config);

  /// Powered-off devices drop all traffic and lose dynamic state. Used by
  /// failure injection ("shutdown one switch ... to simulate a switch
  /// failure", §3.1).
  void power_off();
  void power_on();
  [[nodiscard]] bool powered() const { return powered_; }

 protected:
  simnet::Port& add_port(const std::string& ifname);

  /// FNV-1a of the device name: the stable seed of its MACs and, on a host,
  /// its ping identifier.
  [[nodiscard]] std::uint32_t name_seed() const;

  /// Console commands every device understands regardless of type:
  /// "flash <version>" (re-flash firmware from the catalog, §2.1) and
  /// "show firmware". Subclasses call this first from exec().
  std::optional<std::string> handle_common_command(const std::string& line);

  /// Re-arms `fn` every `period` until the device is destroyed or powered
  /// off. Timer phase restarts on power-on.
  void schedule_periodic(util::Duration period, std::function<void()> fn);
  void schedule_once(util::Duration delay, std::function<void()> fn);

  /// Hook: dynamic state (MAC/ARP tables, STP state, connections) resets.
  virtual void on_reset() {}

  simnet::Network& net_;
  simnet::Scheduler& scheduler_;

 private:
  std::string name_;
  Firmware firmware_;
  bool powered_ = true;
  std::vector<simnet::Port*> ports_;
  std::vector<std::string> port_names_;
  // Replaced at power-off and dropped at destruction; one-shots and ticks
  // hold it weakly and stop once it expires.
  std::shared_ptr<const bool> power_token_ =
      std::make_shared<const bool>(true);
  // The periodic ticks, cleared on power-off.
  std::vector<std::unique_ptr<simnet::Timer>> periodic_timers_;
};

}  // namespace rnl::devices
