// Kept because the perfbench harness calls TryFastParseRequestLine; requests
// have one parser, protocol::ParseRequestLine (service/request_codec.cc).
#pragma once

#include <string_view>
#include <utility>

#include "service/protocol.h"

namespace optshare::service::protocol {

/// True, with the parsed request in *out, exactly when ParseRequestLine
/// accepts `line`; false leaves *out unspecified.
inline bool TryFastParseRequestLine(std::string_view line, Request* out) {
  Result<Request> parsed = ParseRequestLine(line);
  if (!parsed.ok()) return false;
  *out = std::move(parsed).value();
  return true;
}

}  // namespace optshare::service::protocol
