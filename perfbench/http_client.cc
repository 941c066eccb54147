#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>

namespace perfbench {

namespace {

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool RecvMore(int fd, std::string* buf) {
  char chunk[65536];
  ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buf->append(chunk, static_cast<size_t>(n));
  return true;
}

}  // namespace

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  carry_.clear();
}

bool HttpClient::Connect(uint16_t port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

int HttpClient::Get(const std::string& target, std::string* body) {
  body->clear();
  if (fd_ < 0 && !Connect(port_)) return 0;
  std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
  if (!SendAll(fd_, request)) {
    Close();
    return 0;
  }
  size_t head_end;
  while ((head_end = carry_.find("\r\n\r\n")) == std::string::npos) {
    if (!RecvMore(fd_, &carry_)) {
      Close();
      return 0;
    }
  }
  int status = std::atoi(carry_.c_str() + carry_.find(' ') + 1);
  size_t content_length = 0;
  size_t cl = carry_.find("Content-Length:");
  if (cl != std::string::npos && cl < head_end) {
    content_length = std::strtoull(carry_.c_str() + cl + 15, nullptr, 10);
  }
  size_t body_start = head_end + 4;
  while (carry_.size() < body_start + content_length) {
    if (!RecvMore(fd_, &carry_)) {
      Close();
      return 0;
    }
  }
  body->assign(carry_, body_start, content_length);
  carry_.erase(0, body_start + content_length);
  return status;
}

std::string UrlEncode(const std::string& s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

namespace {

// Value of the sample line "<name> <value>", or 0.
double SampleValue(const std::string& metrics, const std::string& name) {
  std::istringstream in(metrics);
  for (std::string line; std::getline(in, line);) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return 0;
}

}  // namespace

HistogramTotals ScrapeHistogram(const std::string& metrics,
                                const std::string& name) {
  return {SampleValue(metrics, name + "_sum"),
          SampleValue(metrics, name + "_count")};
}

double ScrapeCounter(const std::string& metrics, const std::string& name) {
  return SampleValue(metrics, name);
}

}  // namespace perfbench
