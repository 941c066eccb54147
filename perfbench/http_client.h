// Minimal keep-alive HTTP/1.1 client for the loopback workload.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(uint16_t port);
  /// Sends GET `target` and reads one Content-Length-framed response.
  /// Returns the status code, or 0 on a transport error (the connection is
  /// then re-opened on the next call).
  int Get(const std::string& target, std::string* body);

 private:
  void Close();

  uint16_t port_ = 0;
  int fd_ = -1;
  std::string carry_;  // bytes read past the previous response
};

/// application/x-www-form-urlencoded style percent-encoding.
std::string UrlEncode(const std::string& s);

/// Sum and count of a Prometheus histogram `name` in a /metrics body
/// (zeros when absent).
struct HistogramTotals {
  double sum = 0;
  double count = 0;
};
HistogramTotals ScrapeHistogram(const std::string& metrics, const std::string& name);
/// Value of a Prometheus counter (0 when absent).
double ScrapeCounter(const std::string& metrics, const std::string& name);

}  // namespace perfbench
