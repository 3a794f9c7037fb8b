#pragma once

// VT100 terminal emulation (§2.1: "The web user interface also implements
// VT100 terminal emulation" for router console logins).
//
// A fixed-size character grid driven by a byte stream: printable characters,
// CR/LF/BS/TAB, and the common ESC[ control sequences (cursor movement,
// erase, SGR attributes — attributes are parsed and discarded; routers only
// use bold/normal). Enough to render any IOS console session faithfully.

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace rnl::core {

class Vt100Terminal {
 public:
  explicit Vt100Terminal(int cols = 80, int rows = 24);

  void feed(util::BytesView bytes);
  void feed(const std::string& text);

  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cursor_row() const { return cursor_row_; }

  /// Row contents, right-trimmed.
  [[nodiscard]] std::string line(int row) const;
  /// Whole screen, rows joined by '\n', right-trimmed.
  [[nodiscard]] std::string render() const;
  /// All text that ever scrolled off the top plus the current screen —
  /// what a user scrolling back in the browser terminal would see.
  [[nodiscard]] const std::string& scrollback() const { return scrollback_; }

  void reset();

 private:
  void put_char(char c);
  void newline();
  void execute_csi(const std::string& params, char final);

  int cols_;
  int rows_;
  int cursor_row_ = 0;
  int cursor_col_ = 0;
  std::vector<std::string> screen_;  // rows_ strings of cols_ chars
  std::string scrollback_;

  enum class ParseState { kGround, kEscape, kCsi };
  ParseState state_ = ParseState::kGround;
  std::string csi_params_;
};

}  // namespace rnl::core
