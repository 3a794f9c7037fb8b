#pragma once

// Cisco-IOS-style CLI mode machine shared by all device models.
//
// §1 blames configuration errors partly on "a very primitive CLI"; RNL's
// whole point is letting administrators exercise that CLI safely. The device
// emulations therefore expose a believable IOS-like console: user exec (>),
// privileged exec (#), global config, and interface config modes, `no`
// negation, and `show running-config` round-tripping.

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace rnl::devices {

enum class CliMode {
  kUserExec,       // hostname>
  kPrivExec,       // hostname#
  kGlobalConfig,   // hostname(config)#
  kInterfaceConfig  // hostname(config-if)#
};

/// Per-console parser state + command dispatch.
///
/// Devices register handlers per (mode, verb). The engine owns the built-in
/// mode-navigation commands (enable/disable/configure terminal/interface/
/// exit/end) and `no` negation; handlers receive the remaining tokens.
class CliEngine {
 public:
  /// Handler receives (args after the verb, negated by "no"?). Returns the
  /// output text; conventionally errors start with "% " like IOS.
  using Handler =
      std::function<std::string(const std::vector<std::string>&, bool)>;

  explicit CliEngine(std::string hostname);

  [[nodiscard]] const std::string& hostname() const { return hostname_; }

  /// `interface_exists` validates names for the `interface` command.
  void set_interface_validator(std::function<bool(const std::string&)> fn) {
    interface_exists_ = std::move(fn);
  }

  /// Registers `verb` (one or two tokens, e.g. "show ip route" registers
  /// under "show"+match) in `mode`. Longest registered verb wins.
  void register_command(CliMode mode, const std::string& verb,
                        Handler handler);

  std::string execute(const std::string& line);

  [[nodiscard]] CliMode mode() const { return mode_; }
  [[nodiscard]] const std::string& current_interface() const {
    return current_interface_;
  }
  [[nodiscard]] std::string prompt() const;

 private:
  std::string dispatch(CliMode mode, const std::vector<std::string>& tokens,
                       bool negated);

  std::string hostname_;
  CliMode mode_ = CliMode::kUserExec;
  std::string current_interface_;
  std::function<bool(const std::string&)> interface_exists_;
  // key: mode -> sorted verb map (multi-token verbs joined with ' ').
  std::map<CliMode, std::map<std::string, Handler>> commands_;
};

}  // namespace rnl::devices
