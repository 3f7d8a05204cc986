// The JsonValue-tree request parser, a differential oracle for the
// single-pass codec (service/request_codec.cc): the codec suites and
// bench/protocol_speed.cc check that ParseRequestLine reaches its
// accept/reject decision, status text and Request on every line they feed.
#include "support/request_oracle.h"

#include <cmath>
#include <initializer_list>
#include <limits>
#include <utility>

namespace optshare::service::protocol {
namespace {

// -- Strict-parse helpers ---------------------------------------------------

Status CheckObject(const JsonValue& v, const char* ctx) {
  if (!v.is_object()) {
    return Status::InvalidArgument(std::string(ctx) + " must be an object");
  }
  return Status::OK();
}

/// Unknown-field rejection: the strictness that keeps schema drift loud.
Status CheckFields(const JsonValue& v,
                   std::initializer_list<const char*> allowed,
                   const char* ctx) {
  for (const auto& [key, value] : v.AsObject()) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument(std::string(ctx) + ": unknown field \"" +
                                     key + "\"");
    }
  }
  return Status::OK();
}

// Thin protocol-flavored wrappers over the shared typed accessors
// (common/json.h); GetInt narrows to the protocol's int fields.

Result<double> GetNumber(const JsonValue& v, const char* key,
                         const char* ctx) {
  return JsonNumberField(v, key, ctx);
}

Result<int> GetInt(const JsonValue& v, const char* key, const char* ctx) {
  Result<int64_t> number = JsonIntField(v, key, ctx);
  if (!number.ok()) return number.status();
  if (*number < std::numeric_limits<int>::min() ||
      *number > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be an integer");
  }
  return static_cast<int>(*number);
}

Result<std::string> GetString(const JsonValue& v, const char* key,
                              const char* ctx) {
  return JsonStringField(v, key, ctx);
}

Result<bool> GetBool(const JsonValue& v, const char* key, const char* ctx) {
  return JsonBoolField(v, key, ctx);
}

/// Parses the "v" field and accepts any version this build still speaks
/// ([kMinProtocolVersion, kProtocolVersion]); the accepted value is
/// returned so callers can echo it.
Result<int> CheckVersion(const JsonValue& v, const char* ctx) {
  const JsonValue* field = v.Find("v");
  if (field == nullptr || !field->is_number()) {
    return Status::InvalidArgument(std::string(ctx) +
                                   ": missing protocol version field \"v\"");
  }
  const double number = field->AsNumber();
  if (number != std::floor(number) || number < kMinProtocolVersion ||
      number > kProtocolVersion) {
    return Status::InvalidArgument(
        std::string(ctx) + ": unsupported protocol version (this build "
        "speaks versions " + std::to_string(kMinProtocolVersion) + " through " +
        std::to_string(kProtocolVersion) + ")");
  }
  return static_cast<int>(number);
}

}  // namespace

Result<simdb::SimUser> SimUserFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "tenant"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      v, {"start", "end", "executions_per_slot", "workload"}, "tenant"));
  simdb::SimUser tenant;
  Result<int> start = GetInt(v, "start", "tenant");
  if (!start.ok()) return start.status();
  tenant.start = *start;
  Result<int> end = GetInt(v, "end", "tenant");
  if (!end.ok()) return end.status();
  tenant.end = *end;
  Result<double> executions =
      GetNumber(v, "executions_per_slot", "tenant");
  if (!executions.ok()) return executions.status();
  tenant.executions_per_slot = *executions;

  const JsonValue* workload = v.Find("workload");
  if (workload == nullptr || !workload->is_array()) {
    return Status::InvalidArgument("tenant: field \"workload\" must be an array");
  }
  for (const JsonValue& entry_v : workload->AsArray()) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(entry_v, "workload entry"));
    OPTSHARE_RETURN_NOT_OK(
        CheckFields(entry_v, {"frequency", "query"}, "workload entry"));
    simdb::Workload::Entry entry;
    Result<double> frequency = GetNumber(entry_v, "frequency", "workload entry");
    if (!frequency.ok()) return frequency.status();
    entry.frequency = *frequency;
    const JsonValue* query_v = entry_v.Find("query");
    if (query_v == nullptr) {
      return Status::InvalidArgument("workload entry: missing \"query\"");
    }
    OPTSHARE_RETURN_NOT_OK(CheckObject(*query_v, "query"));
    OPTSHARE_RETURN_NOT_OK(
        CheckFields(*query_v, {"table", "aggregate", "predicates"}, "query"));
    Result<std::string> table = GetString(*query_v, "table", "query");
    if (!table.ok()) return table.status();
    entry.query.table = std::move(*table);
    Result<bool> aggregate = GetBool(*query_v, "aggregate", "query");
    if (!aggregate.ok()) return aggregate.status();
    entry.query.aggregate = *aggregate;
    const JsonValue* predicates = query_v->Find("predicates");
    if (predicates == nullptr || !predicates->is_array()) {
      return Status::InvalidArgument(
          "query: field \"predicates\" must be an array");
    }
    for (const JsonValue& pred_v : predicates->AsArray()) {
      OPTSHARE_RETURN_NOT_OK(CheckObject(pred_v, "predicate"));
      OPTSHARE_RETURN_NOT_OK(
          CheckFields(pred_v, {"column", "selectivity"}, "predicate"));
      simdb::Predicate pred;
      Result<std::string> column = GetString(pred_v, "column", "predicate");
      if (!column.ok()) return column.status();
      pred.column = std::move(*column);
      Result<double> selectivity =
          GetNumber(pred_v, "selectivity", "predicate");
      if (!selectivity.ok()) return selectivity.status();
      pred.selectivity = *selectivity;
      entry.query.predicates.push_back(std::move(pred));
    }
    tenant.workload.entries.push_back(std::move(entry));
  }
  return tenant;
}

Result<Request> RequestFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "request"));
  Result<int> version = CheckVersion(v, "request");
  if (!version.ok()) return version.status();
  Result<std::string> op_name = GetString(v, "op", "request");
  if (!op_name.ok()) return op_name.status();
  std::optional<RequestOp> op = RequestOpFromName(*op_name);
  if (!op) {
    return Status::InvalidArgument("request: unknown op \"" + *op_name +
                                   "\"");
  }
  if (*version < RequestOpMinVersion(*op)) {
    return Status::InvalidArgument(
        "request: op \"" + *op_name + "\" requires protocol version " +
        std::to_string(RequestOpMinVersion(*op)));
  }
  Request request;
  request.op = *op;
  request.version = *version;
  if (v.Find("id") != nullptr) {
    Result<std::string> id = GetString(v, "id", "request");
    if (!id.ok()) return id.status();
    request.id = std::move(*id);
  }
  if (OpTakesTenancy(request.op)) {
    Result<std::string> tenancy = GetString(v, "tenancy", "request");
    if (!tenancy.ok()) return tenancy.status();
    if (tenancy->empty()) {
      return Status::InvalidArgument("request: \"tenancy\" must be non-empty");
    }
    request.tenancy = std::move(*tenancy);
  }
  switch (request.op) {
    case RequestOp::kOpenPeriod: {
      OPTSHARE_RETURN_NOT_OK(CheckFields(
          v, {"v", "op", "id", "tenancy", "catalog", "config"},
          "open_period"));
      if (const JsonValue* catalog = v.Find("catalog")) {
        Result<CatalogSpec> spec = CatalogSpecFromJson(*catalog);
        if (!spec.ok()) return spec.status();
        request.catalog = std::move(*spec);
      }
      if (const JsonValue* config = v.Find("config")) {
        Result<ServiceConfig> parsed = ServiceConfigFromJson(*config);
        if (!parsed.ok()) return parsed.status();
        request.config = std::move(*parsed);
      }
      break;
    }
    case RequestOp::kSubmit:
    case RequestOp::kQueryPrice: {
      const char* ctx =
          request.op == RequestOp::kSubmit ? "submit" : "query_price";
      OPTSHARE_RETURN_NOT_OK(
          CheckFields(v, {"v", "op", "id", "tenancy", "tenants"}, ctx));
      const JsonValue* tenants = v.Find("tenants");
      if (tenants == nullptr || !tenants->is_array()) {
        return Status::InvalidArgument(std::string(ctx) +
                                       ": field \"tenants\" must be an array");
      }
      for (const JsonValue& tenant_v : tenants->AsArray()) {
        Result<simdb::SimUser> tenant = SimUserFromJson(tenant_v);
        if (!tenant.ok()) return tenant.status();
        request.tenants.push_back(std::move(*tenant));
      }
      break;
    }
    case RequestOp::kDepart: {
      OPTSHARE_RETURN_NOT_OK(
          CheckFields(v, {"v", "op", "id", "tenancy", "tenant"}, "depart"));
      Result<int> tenant = GetInt(v, "tenant", "depart");
      if (!tenant.ok()) return tenant.status();
      request.tenant = *tenant;
      break;
    }
    case RequestOp::kAdvanceSlot: {
      OPTSHARE_RETURN_NOT_OK(CheckFields(
          v, {"v", "op", "id", "tenancy", "slots"}, "advance_slot"));
      if (v.Find("slots") != nullptr) {
        Result<int> slots = GetInt(v, "slots", "advance_slot");
        if (!slots.ok()) return slots.status();
        if (*slots < 1) {
          return Status::InvalidArgument(
              "advance_slot: \"slots\" must be >= 1");
        }
        request.slots = *slots;
      }
      break;
    }
    case RequestOp::kReplAppend: {
      OPTSHARE_RETURN_NOT_OK(CheckFields(
          v, {"v", "op", "id", "tenancy", "record"}, "repl_append"));
      Result<std::string> record = GetString(v, "record", "repl_append");
      if (!record.ok()) return record.status();
      request.record = std::move(*record);
      break;
    }
    case RequestOp::kReplCheckpoint: {
      OPTSHARE_RETURN_NOT_OK(CheckFields(
          v, {"v", "op", "id", "tenancy", "snapshot"}, "repl_checkpoint"));
      const JsonValue* snapshot = v.Find("snapshot");
      if (snapshot == nullptr || !snapshot->is_object()) {
        return Status::InvalidArgument(
            "repl_checkpoint: field \"snapshot\" must be an object");
      }
      request.snapshot = *snapshot;
      break;
    }
    case RequestOp::kClusterUpdate: {
      OPTSHARE_RETURN_NOT_OK(CheckFields(
          v, {"v", "op", "id", "placement"}, "cluster_update"));
      const JsonValue* placement = v.Find("placement");
      if (placement == nullptr || !placement->is_object()) {
        return Status::InvalidArgument(
            "cluster_update: field \"placement\" must be an object");
      }
      request.placement = *placement;
      break;
    }
    case RequestOp::kRestore:
    case RequestOp::kExport: {
      const char* ctx =
          request.op == RequestOp::kRestore ? "restore" : "export";
      OPTSHARE_RETURN_NOT_OK(
          CheckFields(v, {"v", "op", "id", "tenancy"}, ctx));
      if (v.Find("tenancy") != nullptr) {
        Result<std::string> tenancy = GetString(v, "tenancy", ctx);
        if (!tenancy.ok()) return tenancy.status();
        if (tenancy->empty()) {
          return Status::InvalidArgument(
              std::string(ctx) + ": \"tenancy\" must be non-empty when present");
        }
        request.tenancy = std::move(*tenancy);
      }
      break;
    }
    case RequestOp::kReport:
      OPTSHARE_RETURN_NOT_OK(
          CheckFields(v, {"v", "op", "id", "tenancy", "period"}, "report"));
      if (v.Find("period") != nullptr) {
        Result<int> period = GetInt(v, "period", "report");
        if (!period.ok()) return period.status();
        if (*period < 1) {
          return Status::InvalidArgument("report: \"period\" must be >= 1");
        }
        request.period = *period;
      }
      break;
    case RequestOp::kClosePeriod:
    case RequestOp::kSnapshot:
    case RequestOp::kReplSync:
    case RequestOp::kTenancyState:
    case RequestOp::kEvict:
      OPTSHARE_RETURN_NOT_OK(
          CheckFields(v, {"v", "op", "id", "tenancy"}, "request"));
      break;
    case RequestOp::kBatch: {
      OPTSHARE_RETURN_NOT_OK(
          CheckFields(v, {"v", "op", "id", "requests"}, "batch"));
      const JsonValue* members = v.Find("requests");
      if (members == nullptr || !members->is_array()) {
        return Status::InvalidArgument(
            "batch: field \"requests\" must be an array");
      }
      if (members->AsArray().empty()) {
        return Status::InvalidArgument(
            "batch: \"requests\" must be non-empty");
      }
      request.requests.reserve(members->AsArray().size());
      for (const JsonValue& member_v : members->AsArray()) {
        Result<Request> member = RequestFromJson(member_v);
        if (!member.ok()) return member.status();
        if (member->op == RequestOp::kBatch) {
          return Status::InvalidArgument(
              "batch: members may not themselves be batches");
        }
        if (member->op == RequestOp::kShutdown) {
          return Status::InvalidArgument(
              "batch: members may not be shutdowns");
        }
        request.requests.push_back(std::move(*member));
      }
      break;
    }
    case RequestOp::kListMechanisms:
    case RequestOp::kShutdown:
    case RequestOp::kServerInfo:
      OPTSHARE_RETURN_NOT_OK(
          CheckFields(v, {"v", "op", "id"}, "request"));
      break;
  }
  return request;
}

Result<Request> ParseRequestLineTree(const std::string& line,
                                     size_t max_bytes) {
  if (max_bytes > 0 && line.size() > max_bytes) {
    return Status::ResourceExhausted(
        "request line of " + std::to_string(line.size()) +
        " bytes exceeds the " + std::to_string(max_bytes) + "-byte cap");
  }
  Result<JsonValue> doc = JsonValue::Parse(line);
  if (!doc.ok()) return doc.status();
  return RequestFromJson(*doc);
}

}  // namespace optshare::service::protocol
