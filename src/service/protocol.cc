#include "service/protocol.h"

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

std::string_view ColumnTypeName(simdb::ColumnType type) {
  switch (type) {
    case simdb::ColumnType::kInt64:
      return "int64";
    case simdb::ColumnType::kDouble:
      return "double";
    case simdb::ColumnType::kString:
      return "string";
  }
  return "int64";
}

std::optional<simdb::ColumnType> ColumnTypeFromName(std::string_view name) {
  if (name == "int64") return simdb::ColumnType::kInt64;
  if (name == "double") return simdb::ColumnType::kDouble;
  if (name == "string") return simdb::ColumnType::kString;
  return std::nullopt;
}

}  // namespace

// -- Op tags ----------------------------------------------------------------

std::string_view RequestOpName(RequestOp op) {
  switch (op) {
    case RequestOp::kOpenPeriod:
      return "open_period";
    case RequestOp::kSubmit:
      return "submit";
    case RequestOp::kDepart:
      return "depart";
    case RequestOp::kAdvanceSlot:
      return "advance_slot";
    case RequestOp::kClosePeriod:
      return "close_period";
    case RequestOp::kReport:
      return "report";
    case RequestOp::kListMechanisms:
      return "list_mechanisms";
    case RequestOp::kSnapshot:
      return "snapshot";
    case RequestOp::kRestore:
      return "restore";
    case RequestOp::kShutdown:
      return "shutdown";
    case RequestOp::kServerInfo:
      return "server_info";
    case RequestOp::kReplAppend:
      return "repl_append";
    case RequestOp::kReplCheckpoint:
      return "repl_checkpoint";
    case RequestOp::kReplSync:
      return "repl_sync";
    case RequestOp::kTenancyState:
      return "tenancy_state";
    case RequestOp::kEvict:
      return "evict";
    case RequestOp::kClusterUpdate:
      return "cluster_update";
    case RequestOp::kQueryPrice:
      return "query_price";
    case RequestOp::kExport:
      return "export";
    case RequestOp::kBatch:
      return "batch";
  }
  return "list_mechanisms";
}

std::optional<RequestOp> RequestOpFromName(std::string_view name) {
  for (RequestOp op : kAllRequestOps) {
    if (RequestOpName(op) == name) return op;
  }
  return std::nullopt;
}

int RequestOpMinVersion(RequestOp op) {
  switch (op) {
    case RequestOp::kSnapshot:
    case RequestOp::kRestore:
    case RequestOp::kShutdown:
    case RequestOp::kServerInfo:
    case RequestOp::kReplAppend:
    case RequestOp::kReplCheckpoint:
    case RequestOp::kReplSync:
    case RequestOp::kTenancyState:
    case RequestOp::kEvict:
    case RequestOp::kClusterUpdate:
    case RequestOp::kQueryPrice:
    case RequestOp::kExport:
      return 2;
    case RequestOp::kBatch:
      return 3;
    default:
      return 1;
  }
}

bool OpTakesTenancy(RequestOp op) {
  switch (op) {
    case RequestOp::kListMechanisms:
    case RequestOp::kRestore:
    case RequestOp::kShutdown:
    case RequestOp::kServerInfo:
    case RequestOp::kClusterUpdate:
    case RequestOp::kExport:  // Optional tenancy, like restore.
    case RequestOp::kBatch:   // Members carry their own tenancies.
      return false;
    default:
      return true;
  }
}

// -- Leaf serializers -------------------------------------------------------

JsonValue ToJson(const simdb::SimUser& tenant) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("start", JsonValue::Number(tenant.start));
  obj.Set("end", JsonValue::Number(tenant.end));
  obj.Set("executions_per_slot",
          JsonValue::Number(tenant.executions_per_slot));
  JsonValue workload = JsonValue::MakeArray();
  workload.Reserve(tenant.workload.entries.size());
  for (const simdb::Workload::Entry& entry : tenant.workload.entries) {
    JsonValue query = JsonValue::MakeObject();
    query.Set("table", JsonValue::Str(entry.query.table));
    query.Set("aggregate", JsonValue::Bool(entry.query.aggregate));
    JsonValue predicates = JsonValue::MakeArray();
    predicates.Reserve(entry.query.predicates.size());
    for (const simdb::Predicate& pred : entry.query.predicates) {
      JsonValue p = JsonValue::MakeObject();
      p.Set("column", JsonValue::Str(pred.column));
      p.Set("selectivity", JsonValue::Number(pred.selectivity));
      predicates.Append(std::move(p));
    }
    query.Set("predicates", std::move(predicates));
    JsonValue e = JsonValue::MakeObject();
    e.Set("frequency", JsonValue::Number(entry.frequency));
    e.Set("query", std::move(query));
    workload.Append(std::move(e));
  }
  obj.Set("workload", std::move(workload));
  return obj;
}

JsonValue ToJson(const simdb::TableDef& table) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("name", JsonValue::Str(table.name));
  obj.Set("row_count",
          JsonValue::Number(static_cast<double>(table.row_count)));
  JsonValue columns = JsonValue::MakeArray();
  for (const simdb::Column& column : table.columns) {
    JsonValue c = JsonValue::MakeObject();
    c.Set("name", JsonValue::Str(column.name));
    c.Set("type", JsonValue::Str(std::string(ColumnTypeName(column.type))));
    c.Set("distinct_values",
          JsonValue::Number(static_cast<double>(column.distinct_values)));
    columns.Append(std::move(c));
  }
  obj.Set("columns", std::move(columns));
  return obj;
}

Result<simdb::TableDef> TableDefFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "table"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"name", "row_count", "columns"}, "table"));
  simdb::TableDef table;
  Result<std::string> name = GetString(v, "name", "table");
  if (!name.ok()) return name.status();
  table.name = std::move(*name);
  Result<double> rows = GetNumber(v, "row_count", "table");
  if (!rows.ok()) return rows.status();
  if (*rows < 0.0 || *rows != std::floor(*rows)) {
    return Status::InvalidArgument(
        "table: \"row_count\" must be a non-negative integer");
  }
  table.row_count = static_cast<uint64_t>(*rows);
  const JsonValue* columns = v.Find("columns");
  if (columns == nullptr || !columns->is_array()) {
    return Status::InvalidArgument("table: field \"columns\" must be an array");
  }
  for (const JsonValue& column_v : columns->AsArray()) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(column_v, "column"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        column_v, {"name", "type", "distinct_values"}, "column"));
    simdb::Column column;
    Result<std::string> column_name = GetString(column_v, "name", "column");
    if (!column_name.ok()) return column_name.status();
    column.name = std::move(*column_name);
    Result<std::string> type = GetString(column_v, "type", "column");
    if (!type.ok()) return type.status();
    std::optional<simdb::ColumnType> parsed = ColumnTypeFromName(*type);
    if (!parsed) {
      return Status::InvalidArgument("column: unknown type \"" + *type +
                                     "\" (int64, double, string)");
    }
    column.type = *parsed;
    Result<double> distinct = GetNumber(column_v, "distinct_values", "column");
    if (!distinct.ok()) return distinct.status();
    if (*distinct < 1.0 || *distinct != std::floor(*distinct)) {
      return Status::InvalidArgument(
          "column: \"distinct_values\" must be a positive integer");
    }
    column.distinct_values = static_cast<uint64_t>(*distinct);
    table.columns.push_back(std::move(column));
  }
  return table;
}

JsonValue ToJson(const ServiceConfig& config) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("slots_per_period", JsonValue::Number(config.slots_per_period));
  obj.Set("maintenance_fraction",
          JsonValue::Number(config.maintenance_fraction));
  obj.Set("mechanism", JsonValue::Str(config.mechanism));
  JsonValue advisor = JsonValue::MakeObject();
  advisor.Set("min_benefit_ratio",
              JsonValue::Number(config.advisor.min_benefit_ratio));
  advisor.Set("propose_replicas",
              JsonValue::Bool(config.advisor.propose_replicas));
  advisor.Set("max_proposals", JsonValue::Number(config.advisor.max_proposals));
  obj.Set("advisor", std::move(advisor));
  JsonValue pricing = JsonValue::MakeObject();
  pricing.Set("instance_per_hour",
              JsonValue::Number(config.pricing.instance_per_hour));
  pricing.Set("storage_per_gb_month",
              JsonValue::Number(config.pricing.storage_per_gb_month));
  obj.Set("pricing", std::move(pricing));
  // Emitted only when non-default so pre-v3 config documents (journals,
  // snapshots, the differential corpora) stay byte-identical.
  if (!(config.admission == AdmissionConfig{})) {
    JsonValue admission = JsonValue::MakeObject();
    admission.Set("mutating_ops_per_sec",
                  JsonValue::Number(config.admission.mutating_ops_per_sec));
    if (config.admission.burst != 0.0) {
      admission.Set("burst", JsonValue::Number(config.admission.burst));
    }
    obj.Set("admission", std::move(admission));
  }
  return obj;
}

Result<ServiceConfig> ServiceConfigFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "config"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      v,
      {"slots_per_period", "maintenance_fraction", "mechanism", "advisor",
       "pricing", "admission"},
      "config"));
  ServiceConfig config;  // Every field is optional: defaults apply.
  if (v.Find("slots_per_period") != nullptr) {
    Result<int> slots = GetInt(v, "slots_per_period", "config");
    if (!slots.ok()) return slots.status();
    config.slots_per_period = *slots;
  }
  if (v.Find("maintenance_fraction") != nullptr) {
    Result<double> fraction = GetNumber(v, "maintenance_fraction", "config");
    if (!fraction.ok()) return fraction.status();
    config.maintenance_fraction = *fraction;
  }
  if (v.Find("mechanism") != nullptr) {
    Result<std::string> mechanism = GetString(v, "mechanism", "config");
    if (!mechanism.ok()) return mechanism.status();
    config.mechanism = std::move(*mechanism);
  }
  if (const JsonValue* advisor = v.Find("advisor")) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(*advisor, "config.advisor"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        *advisor, {"min_benefit_ratio", "propose_replicas", "max_proposals"},
        "config.advisor"));
    if (advisor->Find("min_benefit_ratio") != nullptr) {
      Result<double> ratio =
          GetNumber(*advisor, "min_benefit_ratio", "config.advisor");
      if (!ratio.ok()) return ratio.status();
      config.advisor.min_benefit_ratio = *ratio;
    }
    if (advisor->Find("propose_replicas") != nullptr) {
      Result<bool> replicas =
          GetBool(*advisor, "propose_replicas", "config.advisor");
      if (!replicas.ok()) return replicas.status();
      config.advisor.propose_replicas = *replicas;
    }
    if (advisor->Find("max_proposals") != nullptr) {
      Result<int> cap = GetInt(*advisor, "max_proposals", "config.advisor");
      if (!cap.ok()) return cap.status();
      config.advisor.max_proposals = *cap;
    }
  }
  if (const JsonValue* pricing = v.Find("pricing")) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(*pricing, "config.pricing"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        *pricing, {"instance_per_hour", "storage_per_gb_month"},
        "config.pricing"));
    if (pricing->Find("instance_per_hour") != nullptr) {
      Result<double> rate =
          GetNumber(*pricing, "instance_per_hour", "config.pricing");
      if (!rate.ok()) return rate.status();
      config.pricing.instance_per_hour = *rate;
    }
    if (pricing->Find("storage_per_gb_month") != nullptr) {
      Result<double> rate =
          GetNumber(*pricing, "storage_per_gb_month", "config.pricing");
      if (!rate.ok()) return rate.status();
      config.pricing.storage_per_gb_month = *rate;
    }
  }
  if (const JsonValue* admission = v.Find("admission")) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(*admission, "config.admission"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        *admission, {"mutating_ops_per_sec", "burst"}, "config.admission"));
    if (admission->Find("mutating_ops_per_sec") != nullptr) {
      Result<double> rate =
          GetNumber(*admission, "mutating_ops_per_sec", "config.admission");
      if (!rate.ok()) return rate.status();
      if (*rate < 0.0) {
        return Status::InvalidArgument(
            "config.admission: \"mutating_ops_per_sec\" must be >= 0");
      }
      config.admission.mutating_ops_per_sec = *rate;
    }
    if (admission->Find("burst") != nullptr) {
      Result<double> burst = GetNumber(*admission, "burst", "config.admission");
      if (!burst.ok()) return burst.status();
      if (*burst < 0.0) {
        return Status::InvalidArgument(
            "config.admission: \"burst\" must be >= 0");
      }
      config.admission.burst = *burst;
    }
  }
  return config;
}

JsonValue ToJson(const CatalogSpec& spec) {
  JsonValue obj = JsonValue::MakeObject();
  if (!spec.scenario.empty()) {
    obj.Set("scenario", JsonValue::Str(spec.scenario));
    obj.Set("tenants", JsonValue::Number(spec.scenario_tenants));
    obj.Set("slots", JsonValue::Number(spec.scenario_slots));
  } else {
    JsonValue tables = JsonValue::MakeArray();
    for (const simdb::TableDef& table : spec.tables) {
      tables.Append(ToJson(table));
    }
    obj.Set("tables", std::move(tables));
  }
  return obj;
}

Result<CatalogSpec> CatalogSpecFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "catalog"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"scenario", "tenants", "slots", "tables"}, "catalog"));
  CatalogSpec spec;
  const bool has_scenario = v.Find("scenario") != nullptr;
  const bool has_tables = v.Find("tables") != nullptr;
  if (has_scenario == has_tables) {
    return Status::InvalidArgument(
        "catalog: exactly one of \"scenario\" and \"tables\" must be given");
  }
  if (has_scenario) {
    Result<std::string> scenario = GetString(v, "scenario", "catalog");
    if (!scenario.ok()) return scenario.status();
    spec.scenario = std::move(*scenario);
    if (v.Find("tenants") != nullptr) {
      Result<int> tenants = GetInt(v, "tenants", "catalog");
      if (!tenants.ok()) return tenants.status();
      spec.scenario_tenants = *tenants;
    }
    if (v.Find("slots") != nullptr) {
      Result<int> slots = GetInt(v, "slots", "catalog");
      if (!slots.ok()) return slots.status();
      spec.scenario_slots = *slots;
    }
  } else {
    if (v.Find("tenants") != nullptr || v.Find("slots") != nullptr) {
      return Status::InvalidArgument(
          "catalog: \"tenants\"/\"slots\" only apply to scenario catalogs");
    }
    const JsonValue* tables = v.Find("tables");
    if (!tables->is_array()) {
      return Status::InvalidArgument(
          "catalog: field \"tables\" must be an array");
    }
    for (const JsonValue& table_v : tables->AsArray()) {
      Result<simdb::TableDef> table = TableDefFromJson(table_v);
      if (!table.ok()) return table.status();
      spec.tables.push_back(std::move(*table));
    }
  }
  return spec;
}

JsonValue ToJson(const PeriodReport& report) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("period", JsonValue::Number(report.period));
  JsonValue structures = JsonValue::MakeArray();
  structures.Reserve(report.structures.size());
  for (const StructureOutcome& outcome : report.structures) {
    JsonValue s = JsonValue::MakeObject();
    s.Set("name", JsonValue::Str(outcome.name));
    s.Set("cost", JsonValue::Number(outcome.cost));
    s.Set("active", JsonValue::Bool(outcome.active));
    s.Set("carried_over", JsonValue::Bool(outcome.carried_over));
    s.Set("num_candidates", JsonValue::Number(outcome.num_candidates));
    s.Set("num_subscribers", JsonValue::Number(outcome.num_subscribers));
    JsonValue serviced = JsonValue::MakeArray();
    serviced.Reserve(outcome.serviced.size());
    for (const StructureOutcome::ServicedEntry& entry : outcome.serviced) {
      JsonValue e = JsonValue::MakeObject();
      e.Set("tenant", JsonValue::Number(entry.tenant));
      e.Set("from_slot", JsonValue::Number(entry.from_slot));
      serviced.Append(std::move(e));
    }
    s.Set("serviced", std::move(serviced));
    structures.Append(std::move(s));
  }
  obj.Set("structures", std::move(structures));
  JsonValue ledger = JsonValue::MakeObject();
  ledger.Set("total_cost", JsonValue::Number(report.ledger.total_cost));
  JsonValue values = JsonValue::MakeArray();
  values.Reserve(report.ledger.user_value.size());
  for (double value : report.ledger.user_value) {
    values.Append(JsonValue::Number(value));
  }
  ledger.Set("user_value", std::move(values));
  JsonValue payments = JsonValue::MakeArray();
  payments.Reserve(report.ledger.user_payment.size());
  for (double payment : report.ledger.user_payment) {
    payments.Append(JsonValue::Number(payment));
  }
  ledger.Set("user_payment", std::move(payments));
  obj.Set("ledger", std::move(ledger));
  return obj;
}

Result<PeriodReport> PeriodReportFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "report"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"period", "structures", "ledger"}, "report"));
  PeriodReport report;
  Result<int> period = GetInt(v, "period", "report");
  if (!period.ok()) return period.status();
  report.period = *period;
  const JsonValue* structures = v.Find("structures");
  if (structures == nullptr || !structures->is_array()) {
    return Status::InvalidArgument(
        "report: field \"structures\" must be an array");
  }
  for (const JsonValue& s : structures->AsArray()) {
    OPTSHARE_RETURN_NOT_OK(CheckObject(s, "structure"));
    OPTSHARE_RETURN_NOT_OK(CheckFields(
        s,
        {"name", "cost", "active", "carried_over", "num_candidates",
         "num_subscribers", "serviced"},
        "structure"));
    StructureOutcome outcome;
    Result<std::string> name = GetString(s, "name", "structure");
    if (!name.ok()) return name.status();
    outcome.name = std::move(*name);
    Result<double> cost = GetNumber(s, "cost", "structure");
    if (!cost.ok()) return cost.status();
    outcome.cost = *cost;
    Result<bool> active = GetBool(s, "active", "structure");
    if (!active.ok()) return active.status();
    outcome.active = *active;
    Result<bool> carried = GetBool(s, "carried_over", "structure");
    if (!carried.ok()) return carried.status();
    outcome.carried_over = *carried;
    Result<int> candidates = GetInt(s, "num_candidates", "structure");
    if (!candidates.ok()) return candidates.status();
    outcome.num_candidates = *candidates;
    Result<int> subscribers = GetInt(s, "num_subscribers", "structure");
    if (!subscribers.ok()) return subscribers.status();
    outcome.num_subscribers = *subscribers;
    // Absent in pre-strategy-lab reports (journals/snapshots recorded
    // before the field existed): parse leniently.
    const JsonValue* serviced = s.Find("serviced");
    if (serviced != nullptr) {
      if (!serviced->is_array()) {
        return Status::InvalidArgument(
            "structure: field \"serviced\" must be an array");
      }
      for (const JsonValue& entry_v : serviced->AsArray()) {
        OPTSHARE_RETURN_NOT_OK(CheckObject(entry_v, "serviced entry"));
        OPTSHARE_RETURN_NOT_OK(CheckFields(
            entry_v, {"tenant", "from_slot"}, "serviced entry"));
        StructureOutcome::ServicedEntry entry;
        Result<int> tenant = GetInt(entry_v, "tenant", "serviced entry");
        if (!tenant.ok()) return tenant.status();
        entry.tenant = *tenant;
        Result<int> from = GetInt(entry_v, "from_slot", "serviced entry");
        if (!from.ok()) return from.status();
        entry.from_slot = *from;
        outcome.serviced.push_back(entry);
      }
    }
    report.structures.push_back(std::move(outcome));
  }
  const JsonValue* ledger = v.Find("ledger");
  if (ledger == nullptr) {
    return Status::InvalidArgument("report: missing \"ledger\"");
  }
  OPTSHARE_RETURN_NOT_OK(CheckObject(*ledger, "ledger"));
  OPTSHARE_RETURN_NOT_OK(CheckFields(
      *ledger, {"total_cost", "user_value", "user_payment"}, "ledger"));
  Result<double> total_cost = GetNumber(*ledger, "total_cost", "ledger");
  if (!total_cost.ok()) return total_cost.status();
  report.ledger.total_cost = *total_cost;
  for (const char* key : {"user_value", "user_payment"}) {
    const JsonValue* array = ledger->Find(key);
    if (array == nullptr || !array->is_array()) {
      return Status::InvalidArgument(std::string("ledger: field \"") + key +
                                     "\" must be an array");
    }
    std::vector<double>& out = std::string(key) == "user_value"
                                   ? report.ledger.user_value
                                   : report.ledger.user_payment;
    for (const JsonValue& number : array->AsArray()) {
      if (!number.is_number()) {
        return Status::InvalidArgument(std::string("ledger: \"") + key +
                                       "\" entries must be numbers");
      }
      out.push_back(number.AsNumber());
    }
  }
  if (report.ledger.user_value.size() != report.ledger.user_payment.size()) {
    return Status::InvalidArgument(
        "ledger: user_value and user_payment must align");
  }
  return report;
}

// -- Requests ---------------------------------------------------------------

JsonValue ToJson(const Request& request) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("v", JsonValue::Number(request.version));
  obj.Set("op", JsonValue::Str(std::string(RequestOpName(request.op))));
  if (!request.id.empty()) obj.Set("id", JsonValue::Str(request.id));
  if (OpTakesTenancy(request.op)) {
    obj.Set("tenancy", JsonValue::Str(request.tenancy));
  }
  switch (request.op) {
    case RequestOp::kOpenPeriod:
      if (request.catalog) obj.Set("catalog", ToJson(*request.catalog));
      if (request.config) obj.Set("config", ToJson(*request.config));
      break;
    case RequestOp::kSubmit:
    case RequestOp::kQueryPrice: {
      JsonValue tenants = JsonValue::MakeArray();
      tenants.Reserve(request.tenants.size());
      for (const simdb::SimUser& tenant : request.tenants) {
        tenants.Append(ToJson(tenant));
      }
      obj.Set("tenants", std::move(tenants));
      break;
    }
    case RequestOp::kDepart:
      obj.Set("tenant", JsonValue::Number(request.tenant));
      break;
    case RequestOp::kAdvanceSlot:
      obj.Set("slots", JsonValue::Number(request.slots));
      break;
    case RequestOp::kReplAppend:
      obj.Set("record", JsonValue::Str(request.record));
      break;
    case RequestOp::kReplCheckpoint:
      if (request.snapshot) obj.Set("snapshot", *request.snapshot);
      break;
    case RequestOp::kClusterUpdate:
      if (request.placement) obj.Set("placement", *request.placement);
      break;
    case RequestOp::kBatch: {
      JsonValue members = JsonValue::MakeArray();
      members.Reserve(request.requests.size());
      for (const Request& member : request.requests) {
        members.Append(ToJson(member));
      }
      obj.Set("requests", std::move(members));
      break;
    }
    case RequestOp::kRestore:
    case RequestOp::kExport:
      // The tenancy filter is optional on restore/export (OpTakesTenancy is
      // false, so the generic path above skipped it).
      if (!request.tenancy.empty()) {
        obj.Set("tenancy", JsonValue::Str(request.tenancy));
      }
      break;
    case RequestOp::kReport:
      // 0 = the live report; the field is elided so v1 documents stay
      // byte-identical to what they always were.
      if (request.period > 0) {
        obj.Set("period", JsonValue::Number(request.period));
      }
      break;
    case RequestOp::kClosePeriod:
    case RequestOp::kListMechanisms:
    case RequestOp::kSnapshot:
    case RequestOp::kShutdown:
    case RequestOp::kServerInfo:
    case RequestOp::kReplSync:
    case RequestOp::kTenancyState:
    case RequestOp::kEvict:
      break;
  }
  return obj;
}

// -- Responses --------------------------------------------------------------

JsonValue ToJson(const Response& response) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("v", JsonValue::Number(response.version));
  if (!response.id.empty()) obj.Set("id", JsonValue::Str(response.id));
  obj.Set("ok", JsonValue::Bool(response.status.ok()));
  if (response.status.ok()) {
    if (!response.raw_payload.empty()) {
      // The pre-serialized form is authoritative; rebuild the tree a typed
      // consumer expects. Producers guarantee it parses (it was serialized
      // from Responses), but fall back to the tree payload defensively.
      Result<JsonValue> parsed = JsonValue::Parse(response.raw_payload);
      obj.Set("result", parsed.ok() ? std::move(*parsed) : response.payload);
    } else {
      obj.Set("result", response.payload);
    }
  } else {
    JsonValue error = JsonValue::MakeObject();
    error.Set("code", JsonValue::Str(std::string(
                          StatusCodeName(response.status.code()))));
    error.Set("message", JsonValue::Str(response.status.message()));
    if (response.retry_after_ms > 0) {
      error.Set("retry_after_ms", JsonValue::Number(response.retry_after_ms));
    }
    obj.Set("error", std::move(error));
  }
  return obj;
}

Result<Response> ResponseFromJson(const JsonValue& v) {
  OPTSHARE_RETURN_NOT_OK(CheckObject(v, "response"));
  Result<int> version = CheckVersion(v, "response");
  if (!version.ok()) return version.status();
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(v, {"v", "id", "ok", "result", "error"}, "response"));
  Response response;
  response.version = *version;
  if (v.Find("id") != nullptr) {
    Result<std::string> id = GetString(v, "id", "response");
    if (!id.ok()) return id.status();
    response.id = std::move(*id);
  }
  Result<bool> ok = GetBool(v, "ok", "response");
  if (!ok.ok()) return ok.status();
  if (*ok) {
    if (v.Find("error") != nullptr) {
      return Status::InvalidArgument("response: ok response carries an error");
    }
    const JsonValue* payload = v.Find("result");
    if (payload == nullptr) {
      return Status::InvalidArgument("response: missing \"result\"");
    }
    response.payload = *payload;
    return response;
  }
  if (v.Find("result") != nullptr) {
    return Status::InvalidArgument("response: error response carries a result");
  }
  const JsonValue* error = v.Find("error");
  if (error == nullptr) {
    return Status::InvalidArgument("response: missing \"error\"");
  }
  OPTSHARE_RETURN_NOT_OK(CheckObject(*error, "error"));
  OPTSHARE_RETURN_NOT_OK(
      CheckFields(*error, {"code", "message", "retry_after_ms"}, "error"));
  Result<std::string> code_name = GetString(*error, "code", "error");
  if (!code_name.ok()) return code_name.status();
  Result<std::string> message = GetString(*error, "message", "error");
  if (!message.ok()) return message.status();
  std::optional<StatusCode> code = StatusCodeFromName(*code_name);
  if (!code || *code == StatusCode::kOk) {
    return Status::InvalidArgument("error: unknown status code \"" +
                                   *code_name + "\"");
  }
  if (error->Find("retry_after_ms") != nullptr) {
    Result<int> retry = GetInt(*error, "retry_after_ms", "error");
    if (!retry.ok()) return retry.status();
    if (*retry < 1) {
      return Status::InvalidArgument(
          "error: \"retry_after_ms\" must be >= 1");
    }
    response.retry_after_ms = *retry;
  }
  response.status = MakeStatus(*code, std::move(*message));
  return response;
}

std::string FormatResponseLine(const Response& response) {
  std::string out;
  AppendResponseLine(response, &out);
  return out;
}

void AppendResponseLine(const Response& response, std::string* out) {
  // Mirrors ToJson(response).Dump() byte-for-byte: JsonValue objects
  // serialize with sorted keys, so the envelope order is
  // error < id < ok < result < v (and within error,
  // code < message < retry_after_ms).
  out->push_back('{');
  if (!response.status.ok()) {
    out->append("\"error\":{\"code\":");
    JsonEscapeTo(StatusCodeName(response.status.code()), out);
    out->append(",\"message\":");
    JsonEscapeTo(response.status.message(), out);
    if (response.retry_after_ms > 0) {
      out->append(",\"retry_after_ms\":");
      out->append(std::to_string(response.retry_after_ms));
    }
    out->append("},");
  }
  if (!response.id.empty()) {
    out->append("\"id\":");
    JsonEscapeTo(response.id, out);
    out->push_back(',');
  }
  out->append(response.status.ok() ? "\"ok\":true" : "\"ok\":false");
  if (response.status.ok()) {
    out->append(",\"result\":");
    if (!response.raw_payload.empty()) {
      out->append(response.raw_payload);
    } else {
      response.payload.DumpTo(out);
    }
  }
  out->append(",\"v\":");
  out->append(std::to_string(response.version));
  out->push_back('}');
}

Response ErrorResponse(std::string id, Status status) {
  Response response;
  response.id = std::move(id);
  response.status = std::move(status);
  return response;
}

Response OkResponse(std::string id, JsonValue payload) {
  Response response;
  response.id = std::move(id);
  response.payload = std::move(payload);
  return response;
}

}  // namespace optshare::service::protocol
