#include "common/units.h"
#include "common/format.h"

#include <cmath>

namespace saex {

std::string format_bytes(Bytes b) {
  const double v = static_cast<double>(b);
  if (std::llabs(b) >= kGiB) return saex::strfmt::format("{:.2f} GiB", v / static_cast<double>(kGiB));
  if (std::llabs(b) >= kMiB) return saex::strfmt::format("{:.2f} MiB", v / static_cast<double>(kMiB));
  if (std::llabs(b) >= kKiB) return saex::strfmt::format("{:.2f} KiB", v / static_cast<double>(kKiB));
  return saex::strfmt::format("{} B", b);
}

std::string format_rate(double bytes_per_sec) {
  if (bytes_per_sec >= 1e9) return saex::strfmt::format("{:.2f} GB/s", bytes_per_sec / 1e9);
  if (bytes_per_sec >= 1e6) return saex::strfmt::format("{:.1f} MB/s", bytes_per_sec / 1e6);
  if (bytes_per_sec >= 1e3) return saex::strfmt::format("{:.1f} KB/s", bytes_per_sec / 1e3);
  return saex::strfmt::format("{:.0f} B/s", bytes_per_sec);
}

std::string format_duration(double seconds) {
  if (seconds < 0) return format_duration(-seconds).insert(0, 1, '-');
  if (seconds < 60.0) return saex::strfmt::format("{:.1f}s", seconds);
  const int64_t total = static_cast<int64_t>(std::llround(seconds));
  if (total < 3600) return saex::strfmt::format("{}m{:02}s", total / 60, total % 60);
  return saex::strfmt::format("{}h{:02}m", total / 3600, (total % 3600) / 60);
}

std::string format_percent(double fraction) {
  return saex::strfmt::format("{:.1f}%", fraction * 100.0);
}

}  // namespace saex
