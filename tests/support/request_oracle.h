// The JsonValue-tree request parser, kept as the test and bench oracle for
// protocol::ParseRequestLine: JsonValue::Parse, then a strict walk of the
// tree. Production code never links it.
#pragma once

#include <cstddef>
#include <string>

#include "common/json.h"
#include "common/status.h"
#include "service/protocol.h"

namespace optshare::service::protocol {

Result<Request> RequestFromJson(const JsonValue& v);
Result<simdb::SimUser> SimUserFromJson(const JsonValue& v);

/// JsonValue::Parse + RequestFromJson, with ParseRequestLine's `max_bytes`
/// cap.
Result<Request> ParseRequestLineTree(const std::string& line,
                                     size_t max_bytes = 0);

}  // namespace optshare::service::protocol
