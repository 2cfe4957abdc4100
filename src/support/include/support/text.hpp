#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>

namespace support {

/// The classic locale's whitespace: what `std::istream >> std::string`
/// skips and stops at.  Spec tokens split on exactly these bytes, so a
/// CRLF file tokenizes like its LF copy; NUL and bytes >= 0x80 are not
/// whitespace and stay inside tokens.
inline constexpr std::string_view kWhitespace = " \t\n\v\f\r";

/// Call `f(piece)` for each `delim`-separated piece of `text`, exactly
/// as `std::getline(in, piece, delim)` reads them: a last piece without
/// its delimiter counts, a final delimiter adds no empty piece, and
/// empty text has no pieces ("1,2," is two pieces, ",1" and "1,,2"
/// hold an empty one).  Spec lines are the '\n' pieces of the text and
/// comma lists the ',' pieces of a value.
template <typename F>
void for_each_piece(std::string_view text, char delim, F&& f) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find(delim, pos), text.size());
    f(text.substr(pos, end - pos));
    pos = end + 1;
  }
}

/// The whitespace-separated tokens of one spec line, with everything
/// from its first '#' on dropped (a comment; a '#' glued to a token
/// ends the token).
class LineTokens {
 public:
  explicit LineTokens(std::string_view line) : rest_(line.substr(0, line.find('#'))) {}

  /// The next token, or an empty view once none is left.
  std::string_view next() {
    const std::size_t begin = rest_.find_first_not_of(kWhitespace);
    if (begin == std::string_view::npos) {
      rest_ = {};
      return {};
    }
    rest_.remove_prefix(begin);
    const std::string_view token = rest_.substr(0, rest_.find_first_of(kWhitespace));
    rest_.remove_prefix(token.size());
    return token;
  }

 private:
  std::string_view rest_;
};

}  // namespace support
