#include "devices/device.h"

#include "util/strings.h"

namespace rnl::devices {

Device::Device(simnet::Network& net, std::string name, Firmware firmware)
    : net_(net),
      scheduler_(net.scheduler()),
      name_(std::move(name)),
      firmware_(std::move(firmware)) {}

void Device::flash_firmware(const Firmware& firmware) {
  firmware_ = firmware;
  power_off();
  power_on();
}

std::uint32_t Device::name_seed() const {
  std::uint32_t h = 2166136261u;
  for (char c : name_) h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
  return h;
}

int Device::find_port(const std::string& ifname) const {
  for (std::size_t i = 0; i < port_names_.size(); ++i) {
    if (port_names_[i] == ifname) return static_cast<int>(i);
  }
  return -1;
}

std::string Device::apply_config(const std::string& config) {
  std::string errors;
  // Configuration dumps are written relative to global config mode.
  exec("enable");
  exec("configure terminal");
  for (const auto& raw_line : util::split(config, '\n')) {
    std::string line(util::trim(raw_line));
    if (line.empty() || line[0] == '!') continue;  // comments/separators
    std::string out = exec(line);
    if (!out.empty() && out.find("% ") != std::string::npos) {
      errors += line + ": " + out + "\n";
    }
  }
  exec("end");
  return errors;
}

void Device::power_off() {
  if (!powered_) return;
  powered_ = false;
  // Cancel timers and drop dynamic state; admin port state is configuration
  // and survives, but a powered-off device has no carrier.
  power_token_ = std::make_shared<const bool>(true);
  periodic_timers_.clear();
  for (auto* port : ports_) port->set_up(false);
  on_reset();
}

void Device::power_on() {
  if (powered_) return;
  powered_ = true;
  for (auto* port : ports_) port->set_up(true);
  on_reset();
}

std::optional<std::string> Device::handle_common_command(
    const std::string& line) {
  auto tokens = util::split_ws(line);
  if (tokens.size() == 2 && tokens[0] == "flash") {
    auto image = FirmwareCatalog::instance().find(tokens[1]);
    if (!image.has_value()) {
      return "% Unknown firmware image '" + tokens[1] + "'\n";
    }
    flash_firmware(*image);
    return "Flashing " + tokens[1] + " ... done. Device reloaded.\n";
  }
  if (tokens.size() == 2 && tokens[0] == "show" && tokens[1] == "firmware") {
    return "Running image: " + firmware_.version + "\n";
  }
  return std::nullopt;
}

simnet::Port& Device::add_port(const std::string& ifname) {
  simnet::Port& port = net_.make_port(name_ + "/" + ifname);
  ports_.push_back(&port);
  port_names_.push_back(ifname);
  return port;
}

void Device::schedule_periodic(util::Duration period,
                               std::function<void()> fn) {
  const std::size_t slot = periodic_timers_.size();
  std::weak_ptr<const bool> powered = power_token_;
  periodic_timers_.push_back(std::make_unique<simnet::Timer>(
      scheduler_, [this, slot, powered, period, fn = std::move(fn)] {
        fn();
        // A tick that power-cycled the device has dropped this Timer.
        if (!powered.expired()) periodic_timers_[slot]->arm_after(period);
      }));
  periodic_timers_[slot]->arm_after(period);
}

void Device::schedule_once(util::Duration delay, std::function<void()> fn) {
  scheduler_.schedule_after(
      delay, [powered = std::weak_ptr<const bool>(power_token_),
              fn = std::move(fn)] {
        if (!powered.expired()) fn();
      });
}

}  // namespace rnl::devices
