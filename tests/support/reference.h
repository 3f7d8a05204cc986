// Reference (dense-scan) mechanism implementations — the seed's original
// code paths, retained verbatim after the engine refactor (core/mechanism.h)
// for two purposes:
//
//  * Differential testing: tests/core_mechanism_test.cc asserts that every
//    engine-backed entry point (RunShapley, RunAddOn, ...) produces results
//    identical to these on seeded random games.
//  * Benchmarking: bench/mech_speed.cc measures the engine's speedup over
//    these dense scans (BENCH_mechanisms.json).
//
// They live in the optshare_testing support library, which no production
// library links: they rescan the full user universe every eviction round
// and every time slot.
#pragma once

#include "core/add_off.h"
#include "core/add_on.h"
#include "core/moulin.h"
#include "core/shapley.h"
#include "core/subst_off.h"
#include "core/subst_on.h"

namespace optshare::reference {

/// Mechanism 1 via the dense eviction loop.
ShapleyResult RunShapleyDense(double cost, const std::vector<double>& bids);

/// Moulin mechanism via the dense eviction loop (any sharing method).
ShapleyResult RunMoulinDense(const CostSharingMethod& method,
                             const std::vector<double>& bids);

/// AddOff via one dense Shapley run per optimization.
AddOffResult RunAddOffDense(const AdditiveOfflineGame& game);

/// Mechanism 2 rebuilding the full residual-bid vector every slot.
AddOnResult RunAddOnDense(const AdditiveOnlineGame& game);

/// Mechanism 3 over a dense [user][opt] bid matrix.
SubstOffResult RunSubstOffMatrixDense(const std::vector<double>& costs,
                                      std::vector<std::vector<double>> bids);

/// Mechanism 3 from a SubstOfflineGame.
SubstOffResult RunSubstOffDense(const SubstOfflineGame& game);

/// Mechanism 4 rebuilding the dense matrix every slot.
SubstOnResult RunSubstOnDense(const SubstOnlineGame& game);

}  // namespace optshare::reference
