// The whole-roster optimization advisor, kept as the test oracle for
// simdb::Advisor: one pass that collects every user's filtered columns,
// builds one scratch catalog and scores every candidate against every
// user. simdb::Advisor::Extend must reproduce it bit for bit however the
// roster is chunked. Production code never links it.
#pragma once

#include <vector>

#include "common/status.h"
#include "simdb/advisor.h"

namespace optshare::reference {

/// Proposals over `users` as one batch, ranked by descending benefit ratio.
Result<std::vector<simdb::Proposal>> ProposeOptimizationsWholeRoster(
    const simdb::Catalog& catalog, const simdb::CostModel& model,
    const simdb::PricingModel& pricing,
    const std::vector<simdb::SimUser>& users,
    const simdb::AdvisorOptions& options = {});

}  // namespace optshare::reference
