// The request codec behind protocol::ParseRequestLine: one pass of
// common/json.h's JsonCursor over a wire line fills protocol::Request
// directly and decides accept or reject with the strict schema's exact
// status text. No JsonValue tree is built, except for the cold nested
// payloads (open_period's catalog/config, repl_checkpoint's snapshot,
// cluster_update's placement), which are parsed from their already-lexed
// span and handed to the shared *FromJson schema functions.
//
// The schema's rules, which every decoder below keeps:
//   - Values are consumed as their keys arrive, but every schema check runs
//     when the object closes — so the first JSON syntax error anywhere in
//     the line beats any schema error.
//   - A duplicate key's last occurrence wins; whatever an earlier one held
//     (value or error) is discarded.
//   - Escaped keys are decoded before they are matched.
//   - Checks run in a fixed order per object: for a request the version,
//     op, id and tenancy, then unknown fields (the byte-wise smallest
//     unknown key is named), then the op's payload fields; nested objects
//     check unknown fields first, then their fields in schema order; arrays
//     report their first failing element.
//   - A field the op does not model is lexed but never materialized.
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "service/protocol.h"

namespace optshare::service::protocol {
namespace {

using Token = JsonCursor::Token;

Status Invalid(std::string message) {
  return Status::InvalidArgument(std::move(message));
}

/// Records a failed schema check: *verdict = status, and false so checks
/// chain with && and stop at the first failure. Passing checks build no
/// Status at all.
bool Reject(Status* verdict, Status status) {
  *verdict = std::move(status);
  return false;
}

/// A nested object's or array's verdict as one more check.
bool Adopt(const Status& status, Status* verdict) {
  return status.ok() || Reject(verdict, status);
}

/// The last occurrence of one schema key in the object being decoded
/// (meaningful once Fields::has() says the key occurred; left unset before,
/// so an object costs no per-key initialization).
struct Field {
  Token token;
  double number;  ///< The value, when token == kNumber.
  size_t begin;   ///< The raw value is line[begin, end).
  size_t end;
};

/// One object decoded against a fixed key list `names`. Decode() consumes
/// the members; the typed checks (messages `<ctx>: field "<key>" must be
/// ...`) run once the object closes, in whatever order the schema dictates.
template <size_t N>
class Fields {
 public:
  Fields(const char* ctx, const std::string_view (&names)[N])
      : ctx(ctx), names_(names) {}

  const Field& operator[](size_t i) const { return fields_[i]; }
  bool has(size_t i) const { return (seen_ >> i) & 1u; }
  /// The raw JSON of key i's last value.
  std::string_view Span(size_t i) const {
    return text_.substr(fields_[i].begin, fields_[i].end - fields_[i].begin);
  }

  /// Decodes the peeked value as this object: `read(i, field)` consumes
  /// the value of key i, already peeked into field.token; any other key is
  /// lexed past and remembered for Unknown(). Once the object closes,
  /// `check()` runs the schema checks into *verdict. A non-object is lexed
  /// past with the verdict "<ctx> must be an object". False means a lexical
  /// error (the cursor holds it).
  template <typename Read, typename Check>
  bool Decode(JsonCursor& cursor, Token token, Status* verdict, Read&& read,
              Check&& check) {
    if (token != Token::kObject) {
      Reject(verdict, Invalid(std::string(ctx) + " must be an object"));
      return cursor.Skip(token);
    }
    text_ = cursor.text();
    for (bool more = cursor.Enter(); more;) {
      std::string_view key;
      if (!cursor.ReadKey(&key)) return false;
      size_t i = 0;
      while (i < N && names_[i] != key) ++i;
      if (i == N) {
        if (!has_unknown_ || key < unknown_) unknown_.assign(key);
        has_unknown_ = true;
        if (!cursor.SkipValue()) return false;
      } else {
        Field& field = fields_[i];
        seen_ |= 1u << i;
        field.begin = cursor.pos();
        if (!cursor.Peek(&field.token) || !read(i, field)) return false;
        field.end = cursor.pos();
      }
      if (!cursor.Next('}', &more)) return false;
    }
    check();
    return true;
  }

  /// The unknown-field check over keys outside the list and list keys
  /// outside `allowed` (one bit per list index).
  bool Unknown(Status* verdict, uint32_t allowed = ~0u) const {
    if (!has_unknown_ && (seen_ & ~allowed) == 0) return true;
    std::string_view smallest = unknown_;
    bool any = has_unknown_;
    for (size_t i = 0; i < N; ++i) {
      if (has(i) && !((allowed >> i) & 1u) && (!any || names_[i] < smallest)) {
        smallest = names_[i];
        any = true;
      }
    }
    return Reject(verdict, Invalid(std::string(ctx) + ": unknown field \"" +
                                   std::string(smallest) + "\""));
  }

  bool MustBe(size_t i, const char* type, Status* verdict) const {
    return Reject(verdict,
                  Invalid(std::string(ctx) + ": field \"" +
                          std::string(names_[i]) + "\" must be " + type));
  }
  bool Is(size_t i, Token token, const char* type, Status* verdict) const {
    return (has(i) && fields_[i].token == token) || MustBe(i, type, verdict);
  }
  bool Number(size_t i, double* out, Status* verdict) const {
    if (!Is(i, Token::kNumber, "a number", verdict)) return false;
    *out = fields_[i].number;
    return true;
  }
  bool Int(size_t i, int* out, Status* verdict) const {
    double d = 0.0;
    if (!Number(i, &d, verdict)) return false;
    if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
      return MustBe(i, "an integer", verdict);
    }
    *out = static_cast<int>(d);
    return true;
  }
  /// A string the walk only lexed, decoded from its span.
  bool String(size_t i, std::string* out, Status* verdict) const {
    if (!Is(i, Token::kString, "a string", verdict)) return false;
    JsonCursor value(Span(i));
    return value.ReadString(out);  // Lexed already, so it cannot fail.
  }
  bool Bool(size_t i, bool* out, Status* verdict) const {
    const Token token = fields_[i].token;
    if (!has(i) || (token != Token::kTrue && token != Token::kFalse)) {
      return MustBe(i, "a boolean", verdict);
    }
    *out = token == Token::kTrue;
    return true;
  }

  const char* ctx;  ///< Message prefix; the request object switches it per op.

 private:
  const std::string_view (&names_)[N];
  std::string_view text_;
  Field fields_[N];
  uint32_t seen_ = 0;  ///< Bit i: key i occurred.
  bool has_unknown_ = false;
  std::string unknown_;
};

/// Reads a number into field.number; lexes past any other value.
bool ReadScalar(JsonCursor& cursor, Field& field) {
  if (field.token == Token::kNumber) return cursor.ReadNumber(&field.number);
  return cursor.Skip(field.token);
}

/// Reads a string into *out; lexes past any other value.
bool ReadText(JsonCursor& cursor, const Field& field, std::string* out) {
  if (field.token == Token::kString) return cursor.ReadString(out);
  return cursor.Skip(field.token);
}

/// A peeked array whose elements decode with `element`. Elements are
/// materialized up to the first failing one, whose error is the verdict;
/// the rest are only lexed.
template <typename T, typename Element>
bool DecodeArray(JsonCursor& cursor, std::vector<T>* out, Status* verdict,
                 Element&& element) {
  out->clear();
  *verdict = Status::OK();
  for (bool more = cursor.Enter(); more;) {
    Token token;
    if (!cursor.Peek(&token)) return false;
    if (verdict->ok()) {
      if (!element(cursor, token, &out->emplace_back(), verdict)) return false;
      if (!verdict->ok()) out->pop_back();
    } else if (!cursor.Skip(token)) {
      return false;
    }
    if (!cursor.Next(']', &more)) return false;
  }
  return true;
}

/// DecodeArray over an array field the walk only lexed (its op arrived
/// later in the line). The span is known-valid JSON.
template <typename T, typename Element>
Status DecodeArraySpan(std::string_view span, std::vector<T>* out,
                       Status* verdict, Element&& element) {
  JsonCursor cursor(span);
  Token token;
  return cursor.Peek(&token) && DecodeArray(cursor, out, verdict, element)
             ? Status::OK()
             : cursor.status();
}

// -- The submit / query_price roster ------------------------------------------

constexpr std::string_view kPredicateKeys[] = {"column", "selectivity"};

bool DecodePredicate(JsonCursor& cursor, Token token, simdb::Predicate* out,
                     Status* verdict) {
  Fields f("predicate", kPredicateKeys);
  return f.Decode(
      cursor, token, verdict,
      [&](size_t i, Field& field) {
        return i == 0 ? ReadText(cursor, field, &out->column)
                      : ReadScalar(cursor, field);
      },
      [&] {
        return f.Unknown(verdict) &&
               f.Is(0, Token::kString, "a string", verdict) &&
               f.Number(1, &out->selectivity, verdict);
      });
}

constexpr std::string_view kQueryKeys[] = {"table", "aggregate",
                                           "predicates"};

bool DecodeQuery(JsonCursor& cursor, Token token, simdb::Query* out,
                 Status* verdict) {
  Fields f("query", kQueryKeys);
  Status predicates;
  return f.Decode(
      cursor, token, verdict,
      [&](size_t i, Field& field) {
        if (i == 0) return ReadText(cursor, field, &out->table);
        if (i == 2 && field.token == Token::kArray) {
          return DecodeArray(cursor, &out->predicates, &predicates,
                             DecodePredicate);
        }
        return ReadScalar(cursor, field);
      },
      [&] {
        return f.Unknown(verdict) &&
               f.Is(0, Token::kString, "a string", verdict) &&
               f.Bool(1, &out->aggregate, verdict) &&
               f.Is(2, Token::kArray, "an array", verdict) &&
               Adopt(predicates, verdict);
      });
}

constexpr std::string_view kEntryKeys[] = {"frequency", "query"};

bool DecodeEntry(JsonCursor& cursor, Token token,
                 simdb::Workload::Entry* out, Status* verdict) {
  Fields f("workload entry", kEntryKeys);
  Status query;
  return f.Decode(
      cursor, token, verdict,
      [&](size_t i, Field& field) {
        if (i == 0) return ReadScalar(cursor, field);
        query = Status::OK();  // A repeated "query" replaces the last.
        return DecodeQuery(cursor, field.token, &out->query, &query);
      },
      [&] {
        return f.Unknown(verdict) && f.Number(0, &out->frequency, verdict) &&
               (f.has(1) ||
                Reject(verdict,
                       Invalid("workload entry: missing \"query\""))) &&
               Adopt(query, verdict);
      });
}

constexpr std::string_view kTenantKeys[] = {"start", "end",
                                            "executions_per_slot", "workload"};

bool DecodeTenant(JsonCursor& cursor, Token token, simdb::SimUser* out,
                  Status* verdict) {
  Fields f("tenant", kTenantKeys);
  Status workload;
  return f.Decode(
      cursor, token, verdict,
      [&](size_t i, Field& field) {
        if (i == 3 && field.token == Token::kArray) {
          return DecodeArray(cursor, &out->workload.entries, &workload,
                             DecodeEntry);
        }
        return ReadScalar(cursor, field);
      },
      [&] {
        return f.Unknown(verdict) && f.Int(0, &out->start, verdict) &&
               f.Int(1, &out->end, verdict) &&
               f.Number(2, &out->executions_per_slot, verdict) &&
               f.Is(3, Token::kArray, "an array", verdict) &&
               Adopt(workload, verdict);
      });
}

// -- The request document -----------------------------------------------------

enum RequestKey : size_t {
  kV, kOp, kId, kTenancy, kTenants, kTenant, kSlots, kPeriod, kRecord,
  kRequests, kCatalog, kConfig, kSnapshot, kPlacement,
};
constexpr std::string_view kRequestKeys[] = {
    "v",      "op",     "id",       "tenancy", "tenants",
    "tenant", "slots",  "period",   "record",  "requests",
    "catalog", "config", "snapshot", "placement"};

constexpr uint32_t Bit(RequestKey key) { return 1u << key; }

/// The keys `op` accepts beside v/op/id.
uint32_t PayloadKeys(RequestOp op) {
  switch (op) {
    case RequestOp::kOpenPeriod:
      return Bit(kTenancy) | Bit(kCatalog) | Bit(kConfig);
    case RequestOp::kSubmit:
    case RequestOp::kQueryPrice:
      return Bit(kTenancy) | Bit(kTenants);
    case RequestOp::kDepart:
      return Bit(kTenancy) | Bit(kTenant);
    case RequestOp::kAdvanceSlot:
      return Bit(kTenancy) | Bit(kSlots);
    case RequestOp::kReport:
      return Bit(kTenancy) | Bit(kPeriod);
    case RequestOp::kReplAppend:
      return Bit(kTenancy) | Bit(kRecord);
    case RequestOp::kReplCheckpoint:
      return Bit(kTenancy) | Bit(kSnapshot);
    case RequestOp::kClusterUpdate:
      return Bit(kPlacement);
    case RequestOp::kBatch:
      return Bit(kRequests);
    case RequestOp::kListMechanisms:
    case RequestOp::kShutdown:
    case RequestOp::kServerInfo:
      return 0;
    default:  // The tenancy-only ops; restore/export take it optionally.
      return Bit(kTenancy);
  }
}

/// The message prefix of an op's field checks.
const char* OpContext(RequestOp op) {
  switch (op) {
    case RequestOp::kClosePeriod:
    case RequestOp::kSnapshot:
    case RequestOp::kReplSync:
    case RequestOp::kTenancyState:
    case RequestOp::kEvict:
    case RequestOp::kListMechanisms:
    case RequestOp::kShutdown:
    case RequestOp::kServerInfo:
      return "request";
    default:
      return RequestOpName(op).data();  // The names are string literals.
  }
}

/// A cold nested payload, parsed from its span and checked by `from_json`.
template <typename T, typename FromJson>
Status DecodeSpan(std::string_view span, std::optional<T>* out,
                  FromJson&& from_json) {
  Result<JsonValue> doc = JsonValue::Parse(span);
  if (!doc.ok()) return doc.status();
  Result<T> value = from_json(*doc);
  if (!value.ok()) return value.status();
  *out = std::move(*value);
  return Status::OK();
}

bool DecodeRequest(JsonCursor& cursor, Token token, Request* out,
                   Status* verdict, bool batch_only);

bool DecodeMember(JsonCursor& cursor, Token token, Request* out,
                  Status* verdict) {
  if (!DecodeRequest(cursor, token, out, verdict, /*batch_only=*/false)) {
    return false;
  }
  if (verdict->ok() && out->op == RequestOp::kBatch) {
    *verdict = Invalid("batch: members may not themselves be batches");
  } else if (verdict->ok() && out->op == RequestOp::kShutdown) {
    *verdict = Invalid("batch: members may not be shutdowns");
  }
  return true;
}

/// One request document: the line itself or a batch member. A lexical
/// error aborts the line; the schema verdict lands in *verdict. With
/// `batch_only`, only a batch frame can be accepted, so nothing another op
/// would need is materialized.
bool DecodeRequest(JsonCursor& cursor, Token token, Request* out,
                   Status* verdict, bool batch_only) {
  Fields f("request", kRequestKeys);
  std::string op_name;
  std::optional<RequestOp> op;  // What the latest "op" names.
  const auto models = [&](RequestKey key) {
    return op && (!batch_only || *op == RequestOp::kBatch) &&
           (PayloadKeys(*op) & Bit(key)) != 0;
  };
  Status tenants, members;
  bool tenants_read = false, members_read = false;

  // The walk reads only numbers, the op and the arrays the op (so far)
  // models; every string the op models is decoded from its span once the
  // object closes.
  return f.Decode(cursor, token, verdict, [&](size_t i,
                                              Field& field) -> bool {
    switch (i) {
      case kOp:
        op.reset();
        if (field.token != Token::kString) return cursor.Skip(field.token);
        if (!cursor.ReadString(&op_name)) return false;
        op = RequestOpFromName(op_name);
        return true;
      case kTenants:
        tenants_read = field.token == Token::kArray && models(kTenants);
        if (!tenants_read) return cursor.Skip(field.token);
        return DecodeArray(cursor, &out->tenants, &tenants, DecodeTenant);
      case kRequests:
        members_read = field.token == Token::kArray && models(kRequests);
        if (!members_read) return cursor.Skip(field.token);
        return DecodeArray(cursor, &out->requests, &members, DecodeMember);
      default:
        return ReadScalar(cursor, field);
    }
  }, [&] {
    const auto reject = [&](std::string message) {
      return Reject(verdict, Invalid(std::move(message)));
    };
    const Field& v = f[kV];
    if (!f.has(kV) || v.token != Token::kNumber) {
      return reject("request: missing protocol version field \"v\"");
    }
    if (v.number != std::floor(v.number) ||
        v.number < kMinProtocolVersion || v.number > kProtocolVersion) {
      return reject("request: unsupported protocol version (this build "
                    "speaks versions " +
                    std::to_string(kMinProtocolVersion) + " through " +
                    std::to_string(kProtocolVersion) + ")");
    }
    if (!f.Is(kOp, Token::kString, "a string", verdict)) return false;
    if (!op) return reject("request: unknown op \"" + op_name + "\"");
    if (batch_only && *op != RequestOp::kBatch) {
      return reject("request: only a batch frame may be this long");
    }
    const int version = static_cast<int>(v.number);
    if (version < RequestOpMinVersion(*op)) {
      return reject("request: op \"" + op_name +
                    "\" requires protocol version " +
                    std::to_string(RequestOpMinVersion(*op)));
    }
    if (f.has(kId) && !f.String(kId, &out->id, verdict)) return false;
    if (OpTakesTenancy(*op)) {
      if (!f.String(kTenancy, &out->tenancy, verdict)) return false;
      if (out->tenancy.empty()) {
        return reject("request: \"tenancy\" must be non-empty");
      }
    }
    f.ctx = OpContext(*op);
    if (!f.Unknown(verdict, Bit(kV) | Bit(kOp) | Bit(kId) | PayloadKeys(*op))) {
      return false;
    }
    const bool payload = [&] {
      switch (*op) {
        case RequestOp::kOpenPeriod:
          return (!f.has(kCatalog) ||
                  Adopt(DecodeSpan(f.Span(kCatalog), &out->catalog,
                                   CatalogSpecFromJson),
                        verdict)) &&
                 (!f.has(kConfig) ||
                  Adopt(DecodeSpan(f.Span(kConfig), &out->config,
                                   ServiceConfigFromJson),
                        verdict));
        case RequestOp::kSubmit:
        case RequestOp::kQueryPrice:
          return f.Is(kTenants, Token::kArray, "an array", verdict) &&
                 (tenants_read ||
                  Adopt(DecodeArraySpan(f.Span(kTenants), &out->tenants,
                                        &tenants, DecodeTenant),
                        verdict)) &&
                 Adopt(tenants, verdict);
        case RequestOp::kDepart:
          return f.Int(kTenant, &out->tenant, verdict);
        case RequestOp::kAdvanceSlot:
          if (f.has(kSlots)) {
            if (!f.Int(kSlots, &out->slots, verdict)) return false;
            if (out->slots < 1) {
              return reject("advance_slot: \"slots\" must be >= 1");
            }
          }
          return true;
        case RequestOp::kReport:
          if (f.has(kPeriod)) {
            if (!f.Int(kPeriod, &out->period, verdict)) return false;
            if (out->period < 1) {
              return reject("report: \"period\" must be >= 1");
            }
          }
          return true;
        case RequestOp::kReplAppend:
          return f.String(kRecord, &out->record, verdict);
        case RequestOp::kReplCheckpoint:
          if (!f.Is(kSnapshot, Token::kObject, "an object", verdict)) {
            return false;
          }
          out->snapshot = JsonValue::Parse(f.Span(kSnapshot)).value();
          return true;
        case RequestOp::kClusterUpdate:
          if (!f.Is(kPlacement, Token::kObject, "an object", verdict)) {
            return false;
          }
          out->placement = JsonValue::Parse(f.Span(kPlacement)).value();
          return true;
        case RequestOp::kRestore:
        case RequestOp::kExport:
          if (f.has(kTenancy)) {
            if (!f.String(kTenancy, &out->tenancy, verdict)) return false;
            if (out->tenancy.empty()) {
              return reject(std::string(f.ctx) +
                            ": \"tenancy\" must be non-empty when present");
            }
          }
          return true;
        case RequestOp::kBatch:
          if (!f.Is(kRequests, Token::kArray, "an array", verdict)) {
            return false;
          }
          if (!members_read &&
              !Adopt(DecodeArraySpan(f.Span(kRequests), &out->requests,
                                     &members, DecodeMember),
                     verdict)) {
            return false;
          }
          if (members.ok() && out->requests.empty()) {
            return reject("batch: \"requests\" must be non-empty");
          }
          return Adopt(members, verdict);
        default:
          return true;
      }
    }();
    if (!payload) return false;
    out->op = *op;
    out->version = version;
    return true;
  });
}

}  // namespace

Result<Request> ParseRequestLine(std::string_view line, size_t max_bytes,
                                 size_t max_plain_bytes) {
  const auto oversized = [&line](size_t cap) {
    return Status::ResourceExhausted(
        "request line of " + std::to_string(line.size()) +
        " bytes exceeds the " + std::to_string(cap) + "-byte cap");
  };
  // Every path returns `request` itself, so the large Request is built in
  // the caller's slot and never moved (NRVO).
  Result<Request> request(std::in_place);
  if (max_bytes > 0 && line.size() > max_bytes) {
    request = oversized(max_bytes);
    return request;
  }
  const bool batch_only = max_plain_bytes > 0 && line.size() > max_plain_bytes;
  JsonCursor cursor(line);
  cursor.SkipWhitespace();
  Token token;
  Status verdict;
  const bool lexed =
      cursor.Peek(&token) &&
      DecodeRequest(cursor, token, &*request, &verdict, batch_only) &&
      cursor.Finish();
  if (batch_only && !(lexed && verdict.ok())) {
    request = oversized(max_plain_bytes);
  } else if (!lexed) {
    request = cursor.status();
  } else if (!verdict.ok()) {
    request = std::move(verdict);
  }
  return request;
}

}  // namespace optshare::service::protocol
