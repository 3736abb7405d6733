#include "bench.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {
namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double PeakRssMb() {
  // VmHWM, not ru_maxrss: Linux keeps ru_maxrss across execve, so it would
  // report the launching Python process's footprint for small workloads.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      long kib = 0;
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        std::fclose(status);
        return static_cast<double>(kib) / 1024.0;
      }
    }
    std::fclose(status);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * frac;
}

Json& Json::Num(const std::string& key, double value) {
  fields_.emplace_back(key, FormatNumber(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::Nums(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += FormatNumber(values[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

Json& Json::Strs(const std::string& key,
                 const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(values[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

Json& Json::Obj(const std::string& key, const Json& value) {
  fields_.emplace_back(key, value.Render());
  return *this;
}

std::string Json::Render() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
