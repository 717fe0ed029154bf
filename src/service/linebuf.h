// Request-line framing for the service daemon.
//
// asicpp-serve reads each connection in chunks and answers one protocol
// line at a time. LineBuffer splits that byte stream into lines. It scans
// every byte for '\n' once, so a long line arriving over many reads costs
// time linear in its length, and it bounds what one line may hold: a line
// longer than kMaxRequestLine is answered with line_too_long_reply() and the
// connection is closed, because the stream cannot be resynchronized
// without buffering the rest of that line.
#pragma once

#include <cstddef>
#include <string>

namespace asicpp::service {

/// Longest request line asicpp-serve accepts, in bytes without the '\n'.
/// Spec text for an `open` request is the longest legitimate line.
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

class LineBuffer {
 public:
  enum class Status {
    kLine,      ///< `line` holds the next complete line
    kNeedMore,  ///< no complete line buffered; append more bytes
    kTooLong,   ///< the pending line exceeds kMaxRequestLine; drop the connection
  };

  /// Append bytes read from the connection.
  void append(const char* data, std::size_t n);

  /// Take the next complete line, without its '\n', into `line`.
  Status next(std::string& line);

 private:
  std::string buf_;
  std::size_t begin_ = 0;    ///< start of the pending line
  std::size_t scanned_ = 0;  ///< buf_[begin_, scanned_) holds no '\n'
};

/// The one reply to a line LineBuffer refused: {"ok":false,"code":"SVC-001",
/// "error":...}, without a trailing newline.
std::string line_too_long_reply();

}  // namespace asicpp::service
