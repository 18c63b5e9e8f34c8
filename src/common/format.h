// Minimal {}-style string formatting (std::format subset).
//
// The toolchain (GCC 12) predates std::format, so this header provides the
// subset the project uses: positional "{}" placeholders with optional
// printf-like specs — "{:.2f}", "{:.4g}", "{:03}", "{:5}" — plus "{{"/"}}"
// escapes. Unknown specs fall back to the type's default rendering rather
// than throwing: formatting is used in logging/reporting paths where a
// best-effort string beats an exception.
#pragma once

#include <array>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

namespace saex::strfmt {
namespace detail {

inline std::string printf_str(const char* spec, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string printf_str(const char* spec, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, spec);
  const int n = vsnprintf(buf, sizeof(buf), spec, ap);
  va_end(ap);
  if (n < 0) return {};
  if (static_cast<size_t>(n) < sizeof(buf)) return std::string(buf, static_cast<size_t>(n));
  std::string out(static_cast<size_t>(n), '\0');
  va_start(ap, spec);
  vsnprintf(out.data(), out.size() + 1, spec, ap);
  va_end(ap);
  return out;
}

// spec is the part after ':' (may be empty). [flags][width][.prec][f|g|e]
// is honored for floats; [flags][width] for integers, where flags are the
// printf sign/zero-pad flags.
inline bool spec_is(std::string_view spec, std::string_view allowed_tail) {
  if (spec.empty()) return false;
  bool leading = true;
  for (char c : spec.substr(0, spec.size() - 1)) {
    if (leading && (c == '+' || c == '-' || c == ' ')) continue;
    leading = false;
    if ((c < '0' || c > '9') && c != '.') return false;
  }
  return allowed_tail.find(spec.back()) != std::string_view::npos;
}

inline bool spec_numeric_only(std::string_view spec) {
  if (spec.empty()) return false;
  bool leading = true;
  for (char c : spec) {
    if (leading && (c == '+' || c == '-' || c == ' ')) continue;
    leading = false;
    if (c < '0' || c > '9') return false;
  }
  return true;
}

inline std::string format_arg(double v, std::string_view spec) {
  if (spec_is(spec, "fgeFGE")) {
    std::string s(1, '%');
    s.append(spec);
    return printf_str(s.c_str(), v);
  }
  return printf_str("%g", v);
}

inline std::string format_arg(float v, std::string_view spec) {
  return format_arg(static_cast<double>(v), spec);
}

inline std::string format_arg(bool v, std::string_view /*spec*/) {
  return v ? "true" : "false";
}

template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
inline std::string format_arg(T v, std::string_view spec) {
  std::string pf = "%";
  if (spec_numeric_only(spec)) pf += std::string(spec);
  if constexpr (std::is_signed_v<T>) {
    pf += "lld";
    return printf_str(pf.c_str(), static_cast<long long>(v));
  } else {
    pf += "llu";
    return printf_str(pf.c_str(), static_cast<unsigned long long>(v));
  }
}

inline std::string format_arg(const std::string& v, std::string_view) { return v; }
inline std::string format_arg(std::string_view v, std::string_view) {
  return std::string(v);
}
inline std::string format_arg(const char* v, std::string_view) {
  return v != nullptr ? std::string(v) : std::string("(null)");
}

}  // namespace detail

/// Formats `fmt` with "{}"-style placeholders. Extra placeholders render as
/// "{}"; extra arguments are ignored (best-effort semantics).
template <typename... Args>
std::string format(std::string_view fmt, const Args&... args) {
  std::array<std::string (*)(const void*, std::string_view), sizeof...(Args)>
      fns{+[](const void* p, std::string_view spec) {
        return detail::format_arg(*static_cast<const Args*>(p), spec);
      }...};
  std::array<const void*, sizeof...(Args)> ptrs{static_cast<const void*>(&args)...};

  std::string out;
  out.reserve(fmt.size() + sizeof...(Args) * 8);
  size_t arg_idx = 0;
  for (size_t i = 0; i < fmt.size(); ++i) {
    const char c = fmt[i];
    if (c == '{') {
      if (i + 1 < fmt.size() && fmt[i + 1] == '{') {
        out.push_back('{');
        ++i;
        continue;
      }
      const size_t close = fmt.find('}', i);
      if (close == std::string_view::npos) {
        out.append(fmt.substr(i));
        break;
      }
      std::string_view inner = fmt.substr(i + 1, close - i - 1);
      std::string_view spec;
      if (const size_t colon = inner.find(':'); colon != std::string_view::npos) {
        spec = inner.substr(colon + 1);
      }
      if (arg_idx < sizeof...(Args)) {
        out += fns[arg_idx](ptrs[arg_idx], spec);
        ++arg_idx;
      } else {
        out += "{}";
      }
      i = close;
    } else if (c == '}') {
      if (i + 1 < fmt.size() && fmt[i + 1] == '}') ++i;
      out.push_back('}');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace saex::strfmt
