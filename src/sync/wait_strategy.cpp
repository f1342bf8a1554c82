#include "sync/wait_strategy.h"

#include <algorithm>
#include <cctype>

#include "support/assert.h"

namespace orwl::sync {

std::string to_string(const WaitStrategy& ws) {
  switch (ws.mode) {
    case WaitMode::Block:
      return "block";
    case WaitMode::Spin:
      return "spin";
    case WaitMode::SpinThenPark:
      return "spin_then_park(" + std::to_string(ws.spins) + ")";
  }
  return "unknown";
}

WaitStrategy parse_wait_strategy(const std::string& text) {
  std::string s = text;
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (s == "block") return WaitStrategy::block();
  if (s == "spin") return WaitStrategy::spin();
  if (s == "spin_then_park") return WaitStrategy::spin_then_park();
  // spin_then_park(N) / spin_then_park:N
  const std::string prefix = "spin_then_park";
  if (s.rfind(prefix, 0) == 0 && s.size() > prefix.size()) {
    std::string arg = s.substr(prefix.size());
    if (arg.front() == ':') arg = arg.substr(1);
    else if (arg.front() == '(' && arg.back() == ')')
      arg = arg.substr(1, arg.size() - 2);
    else
      arg.clear();
    if (!arg.empty() &&
        std::all_of(arg.begin(), arg.end(),
                    [](unsigned char c) { return std::isdigit(c); })) {
      try {
        return WaitStrategy::spin_then_park(std::stoi(arg));
      } catch (const std::out_of_range&) {
        ORWL_CHECK_MSG(false, "spin count '" << arg
                                             << "' does not fit an int");
      }
    }
  }
  ORWL_CHECK_MSG(false,
                 "unknown wait strategy '"
                     << text
                     << "'; use block | spin | spin_then_park[(N)]");
  return {};  // unreachable
}

}  // namespace orwl::sync
