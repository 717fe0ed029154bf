#include "service/linebuf.h"

#include "service/json.h"

namespace asicpp::service {

void LineBuffer::append(const char* data, std::size_t n) {
  // Drop the lines already taken. What is left is the pending line's
  // head, so each byte moves at most once.
  if (begin_ > 0) {
    buf_.erase(0, begin_);
    scanned_ -= begin_;
    begin_ = 0;
  }
  buf_.append(data, n);
}

LineBuffer::Status LineBuffer::next(std::string& line) {
  const std::size_t nl = buf_.find('\n', scanned_);
  const std::size_t end = nl == std::string::npos ? buf_.size() : nl;
  if (end - begin_ > kMaxRequestLine) return Status::kTooLong;
  if (nl == std::string::npos) {
    scanned_ = buf_.size();
    return Status::kNeedMore;
  }
  line.assign(buf_, begin_, nl - begin_);
  begin_ = scanned_ = nl + 1;
  return Status::kLine;
}

std::string line_too_long_reply() {
  Json j = Json::object();
  j.set("ok", Json::boolean(false));
  j.set("code", Json::string("SVC-001"));
  j.set("error", Json::string("request line longer than " + std::to_string(kMaxRequestLine) +
                              " bytes; closing the connection"));
  return j.dump();
}

}  // namespace asicpp::service
